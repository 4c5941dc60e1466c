// Package fds implements the paper's core contribution: the heartbeat-style,
// cluster-based failure detection service of Section 4.
//
// Every heartbeat interval φ the service executes three rounds, each bounded
// by Thop:
//
//	fds.R-1  Heartbeat exchange. Every node diffuses a heartbeat (emitted by
//	         the co-resident cluster protocol, feature F5); the CH and a
//	         subset of the members hear or overhear each heartbeat.
//	fds.R-2  Digest exchange. Every node reports which in-cluster heartbeats
//	         it heard; the CH broadcasts its own digest.
//	fds.R-3  Health-status update. The CH applies the failure detection rule
//	         and broadcasts the cluster health status.
//
// Failure detection rule (Section 4.2): node v failed iff the CH received
// neither v's heartbeat (R-1) nor v's digest (R-2), and no received digest
// reflects awareness of v's heartbeat. The rule exploits time redundancy
// (two chances per node), spatial redundancy (dense clusters), and the
// inherent message redundancy of promiscuous receiving.
//
// CH-failure rule: the highest-ranked deputy clusterhead applies the same
// logic to the CH, with a third condition — the R-3 update was also missed —
// and takes over at the end of fds.R-3 if the CH is gone.
//
// Two extensions go beyond the paper and are always on (DESIGN.md §7).
// Rescission: a CH that hears a heartbeat from a node it believes failed
// (proof of a false detection, under fail-stop) lists the node in its next
// update's Rescinded field, and the gateways carry the rescission across
// clusters like a failure report. Orphan takeover: after orphanEpochs of
// total CH silence, the lowest-NID surviving member declares the CH failed
// and takes over, instead of the cluster dissolving without a trace.
//
// Completeness enhancement: a member that missed the R-3 update broadcasts a
// forwarding request; peers holding the update answer after unique,
// energy-aware waiting periods (energy-balanced peer forwarding) and stand
// down when they overhear the requester's acknowledgment.
package fds

import (
	"fmt"
	"math"
	"slices"

	"clusterfds/internal/cluster"
	"clusterfds/internal/dense"
	"clusterfds/internal/membership"
	"clusterfds/internal/metrics"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// Config parameterizes the failure detection service. Rescission and orphan
// takeover are not settable: both are always on (see the package comment).
type Config struct {
	// Timing must equal the cluster protocol's timing (shared epochs); New
	// panics otherwise.
	Timing cluster.Timing
	// PeerForwarding enables the intra-cluster completeness enhancement.
	// The ablation benchmarks switch it off to quantify its contribution.
	PeerForwarding bool
	// StrictModelMode disables the implementation's bonus evidence paths
	// that the paper's analytic model does not credit (currently: adopting
	// an overheard forwarded update addressed to another requester). The
	// Monte-Carlo validation enables it so measured rates match the
	// formulas exactly; production configurations leave it off.
	StrictModelMode bool
	// Metrics, when non-nil, receives the protocol's per-epoch event series
	// (detections, false detections, rescissions, peer-forward traffic,
	// orphan events) and the update-delivery latency histogram. Instrument
	// handles are resolved once at construction; a nil registry costs
	// nothing on the hot path (nil handles are no-op instruments).
	Metrics *metrics.Registry
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(t cluster.Timing) Config {
	return Config{Timing: t, PeerForwarding: true}
}

const (
	// orphanEpochs is how many consecutive epochs without a health update
	// or a CH heartbeat a member tolerates before concluding its cluster
	// has dissolved: the lowest-NID surviving member then takes over, the
	// others re-enter formation. The multi-epoch silence keeps a takeover's
	// false-positive probability near P̂(False detection)^orphanEpochs.
	orphanEpochs = 3
	// referenceEnergy scales the energy-aware forwarding backoff: peers
	// with more remaining energy than this wait less.
	referenceEnergy = 100000.0
)

// Protocol is the per-host failure detection service. It observes the same
// promiscuous message stream as the cluster protocol and mutates the cluster
// view through the latter's exported methods.
type Protocol struct {
	cfg     Config
	host    *node.Host
	cluster *cluster.Protocol
	view    membership.View

	epoch wire.Epoch
	// snapshot is the cluster as organized at the epoch start (refreshed
	// after a takeover), which the whole execution judges by (§4.2). It is
	// a copy into buffers fds owns, refilled in place every epoch.
	snapshot cluster.View
	active   bool // participating this epoch (marked at epoch start)

	// ids is the co-resident cluster protocol's interner — a host owns one —
	// and all bitset/slice state below is keyed by its indices. The cluster
	// layer interns IDs of its own (unmarked heartbeats, gateway candidates),
	// so an index bounds nothing here: every table grows to the index it is
	// asked about, and every ForEach consumer sorts.
	ids *dense.Interner

	// R-1 evidence: in-cluster heartbeats heard this epoch. Dense bitset
	// cleared in place at each epoch boundary — the map predecessor was
	// reallocated every epoch and dominated the hot-loop profile.
	heardHB dense.Bitset

	// CH evidence (also collected by DCHs, which overhear everything the
	// CH does thanks to promiscuous receiving). judging is set at the epoch
	// boundary on exactly the hosts that arm detectFn or checkCHFn, the only
	// readers (anyEvidence): everyone else never asks a digest for its Heard
	// list, which then stays undecoded in the datagram — the one
	// per-reception cost that grows with cluster size.
	judging       bool
	digestFrom    dense.Bitset // members whose digest arrived
	aliveInDigest dense.Bitset // nodes some received digest lists; judges only

	// heardScratch is sendDigest's reusable member-list buffer.
	heardScratch []wire.NodeID

	// Member evidence.
	updateReceived bool
	update         *wire.HealthUpdate
	// updateStore is the persistent deep-copy buffer behind p.update when
	// the update arrived off the radio. Delivered messages are backed by the
	// receiver's decode scratch and die when the handler returns, but
	// p.update must survive to the end of the epoch (peer forwarding re-sends
	// it; CurrentUpdate exposes it to the inter-cluster layer). The buffer's
	// backing arrays are reused across epochs, so storing allocates nothing
	// in steady state.
	updateStore   wire.HealthUpdate
	missedUpdates int
	ackedForward  bool

	// Peer-forwarding responder state: fwd holds one slot per requester
	// served this epoch, found by linear scan (a host answers a few requests
	// an epoch), and fwdFree the slots of earlier epochs. The boundary sweep
	// cancels every slot in fwd and moves it to fwdFree, so the host holds
	// as many slots as its busiest epoch armed, not one per requester it has
	// ever served, and arming allocates nothing once the pool covers the
	// epoch. A forward is pending iff its slot's timer is Active: firing, the
	// requester's ack and the boundary sweep all end it.
	fwd     []*fwdSlot
	fwdFree []*fwdSlot

	// pendingRescind collects the false detections this CH itself disproved
	// (it heard the heartbeat) since its last health update; the next
	// update's Rescinded announces them. Each entry is pinned to the epoch
	// of that heartbeat, so it cancels every earlier accusation and no
	// later, genuine detection.
	pendingRescind []wire.Rescission

	// conflictSeen counts takeover updates received for a cluster this
	// host heads while operational — the paper's "conflicting reports"
	// scenario (Section 4.2).
	conflictSeen int

	// Persistent phase callbacks and reusable message/scratch values. The
	// epoch schedule re-arms the same func values every epoch, and every
	// transport encodes during Send, so the digest/update/request message
	// structs (and the scratch slices their fields alias) are recyclable the
	// moment Send returns — the steady-state epoch allocates no per-timer
	// closures and no per-send heap messages. updMsg doubles as the buffer
	// behind p.update when this host originates the epoch's update; its
	// fields are only rewritten by the next origination, an epoch later,
	// after every alias (armed peer-forwards, CurrentUpdate callers) is dead.
	digestFn, detectFn, checkCHFn, reqFwdFn func()
	digestMsg                               wire.Digest
	updMsg                                  wire.HealthUpdate
	fwdReqMsg                               wire.ForwardRequest
	fwdUpdMsg                               wire.ForwardedUpdate
	newFailedScratch                        []wire.NodeID
	failedScratch                           []wire.NodeID

	// readingSource, when set, supplies a sensor measurement to piggyback
	// on each epoch's digest — the Section 6 "message sharing between
	// failure detection and data aggregation". See package aggregate.
	readingSource func(wire.Epoch) (float64, bool)

	// sleepUntil excuses announced sleepers from the detection rule until
	// their declared wake epoch (Section 6: reducing sleep-mode-caused
	// false detections). See package sleep. Dense-indexed; 0 means "no
	// excusal" — a valid sentinel because onSleepNotice requires
	// Until > Epoch, so every recorded wake epoch is >= 1. sleepCount
	// tracks the number of live excusals for O(1) SleepExcusals.
	sleepUntil []wire.Epoch
	sleepCount int

	// Metric handles, resolved once in New. All are valid no-op
	// instruments when cfg.Metrics is nil. The series count per-host
	// events bucketed by epoch: a failure detected by k independent hosts
	// counts k times (the paper's message-count analysis is per-host too).
	mDetect  *metrics.Series    // detections (detectAndAnnounce, CH takeover, orphan takeover)
	mFalse   *metrics.Series    // false detections observed (conflicts, self-listed)
	mRescind *metrics.Series    // fail-stop rescues: suspicions withdrawn on heartbeat
	mFwdReq  *metrics.Series    // forwarding requests broadcast
	mFwdAns  *metrics.Series    // forwarded updates actually transmitted
	mOrphan  *metrics.Series    // orphan events (takeover or demotion after silence)
	mUpdLat  *metrics.Histogram // update-delivery latency beyond R2End, seconds
}

// updateLatencyBounds are the upper bucket edges, in seconds, for the
// update-delivery latency histogram: R-3 direct delivery lands well under
// Thop (20ms default); peer forwarding adds whole slot multiples.
var updateLatencyBounds = []float64{0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}

// New returns an FDS bound to the given co-resident cluster protocol.
func New(cfg Config, cl *cluster.Protocol) *Protocol {
	if cl == nil {
		panic("fds: nil cluster protocol")
	}
	if cfg.Timing != cl.Timing() {
		panic("fds: timing differs from the cluster protocol's")
	}
	r := cfg.Metrics // nil registry yields nil (no-op) handles
	return &Protocol{
		cfg:      cfg,
		cluster:  cl,
		ids:      cl.IDs(),
		mDetect:  r.Series("detections"),
		mFalse:   r.Series("false-detections"),
		mRescind: r.Series("rescissions"),
		mFwdReq:  r.Series("forward-requests"),
		mFwdAns:  r.Series("forward-answers"),
		mOrphan:  r.Series("orphan-events"),
		mUpdLat:  r.Histogram("update-delivery-s", updateLatencyBounds),
	}
}

// Start implements node.Protocol: it enters the epoch loop
// (cluster.Timing.EveryEpoch) at the next epoch boundary — the current epoch
// if the host boots exactly on its start, the following one otherwise.
func (p *Protocol) Start(h *node.Host) {
	p.host = h
	// One closure per callback per lifetime, re-armed every epoch. The
	// in-epoch phase callbacks read p.epoch, which runEpoch set when their
	// epoch began.
	p.digestFn = func() { p.sendDigest(p.epoch) }
	p.detectFn = func() { p.detectAndAnnounce(p.epoch) }
	p.checkCHFn = func() { p.checkCHFailure(p.epoch) }
	p.reqFwdFn = func() { p.maybeRequestForward(p.epoch) }
	p.cfg.Timing.EveryEpoch(h, p.runEpoch)
}

// runEpoch executes one FDS execution for this host.
func (p *Protocol) runEpoch(e wire.Epoch) {
	p.finishEpoch() // settle orphan accounting for the epoch that just ended
	p.epoch = e
	p.pruneSleepers(e)
	p.cluster.ViewInto(&p.snapshot)
	p.active = p.snapshot.Marked
	rank := p.dchRank()
	p.judging = p.snapshot.IsCH || rank > 0
	p.heardHB.Clear()
	p.digestFrom.Clear()
	p.aliveInDigest.Clear()
	p.updateReceived = false
	p.update = nil
	p.ackedForward = false
	p.cancelForwardTimers()
	t := p.cfg.Timing

	if !p.active {
		return
	}
	if p.host.Tracing() {
		p.host.Trace(trace.TypeEpochStart, fmt.Sprintf("epoch=%d ch=%v", e, p.snapshot.CH))
	}

	// The R-1 heartbeat itself is emitted by the cluster protocol (F5).

	// fds.R-2: digest exchange.
	jitter := sim.Time(p.host.Rand().Int63n(t.JitterSpan()))
	p.host.After(t.R1End()+jitter, p.digestFn)

	if p.snapshot.IsCH {
		// fds.R-3: apply the detection rule and broadcast the update.
		p.host.AfterBatched(t.R2End(), p.detectFn)
		return
	}

	// Deputy clusterheads watch the CH. The highest-ranked deputy decides
	// at the end of fds.R-3; lower-ranked deputies wait one extra round
	// per rank (longer than any delivery delay) so they only act if their
	// predecessors' takeover updates never appear.
	if rank > 0 {
		delay := t.R3End() + sim.Time(rank-1)*t.Thop
		p.host.AfterBatched(delay, p.checkCHFn)
	}

	// Members that reach the end of fds.R-3 without the health update ask
	// peers for it. The request waits out the full deputy cascade so a
	// takeover update still counts as "received".
	if p.cfg.PeerForwarding {
		wait := t.R3End() + sim.Time(len(p.snapshot.DCHs))*t.Thop + t.Thop/2
		p.host.AfterBatched(wait, p.reqFwdFn)
	}
}

// finishEpoch performs end-of-epoch accounting for orphan detection: a
// member that saw neither a health update nor its CH's heartbeat this epoch
// counts a miss; enough consecutive misses demote it back to formation.
func (p *Protocol) finishEpoch() {
	if !p.active || p.snapshot.IsCH {
		return
	}
	if p.updateReceived || p.hbHeard(p.snapshot.CH) {
		p.missedUpdates = 0
		return
	}
	p.missedUpdates++
	if p.missedUpdates < orphanEpochs {
		return
	}
	p.missedUpdates = 0
	ch := p.snapshot.CH
	if !p.view.IsFailed(ch) && p.lowestSurvivingMember() {
		// Last-resort takeover: several epochs of total CH silence (no
		// heartbeat, no update, epoch after epoch) mean the CH and every
		// functioning deputy are gone; report the failure rather than let
		// the cluster dissolve without a trace.
		p.view.MarkFailed(ch, p.epoch)
		p.host.Trace(trace.TypeDetect, ch.String())
		p.mDetect.Add(uint64(p.epoch), 1)
		p.mOrphan.Add(uint64(p.epoch), 1)
		p.cluster.TakeOver()
		p.newFailedScratch = append(p.newFailedScratch[:0], ch)
		p.host.Send(p.fillUpdate(ch, p.epoch, p.newFailedScratch, true))
		return
	}
	p.mOrphan.Add(uint64(p.epoch), 1)
	p.cluster.Demote()
	p.host.Trace(trace.TypeViewUpdate, "orphaned: re-entering formation")
}

// lowestSurvivingMember reports whether this host has the lowest NID among
// the members demonstrably alive — those whose heartbeat it heard in the
// epoch that just ended (a silent member may be as dead as the CH, so only
// heard members count as rivals). It is evaluated from finishEpoch, before
// the per-epoch evidence resets.
func (p *Protocol) lowestSurvivingMember() bool {
	me := p.host.ID()
	for _, id := range p.snapshot.Members {
		if id == me || id == p.snapshot.CH || p.view.IsFailed(id) {
			continue
		}
		if id < me && p.hbHeard(id) {
			return false
		}
	}
	return true
}

// hbHeard reports whether id's heartbeat was heard this epoch.
func (p *Protocol) hbHeard(id wire.NodeID) bool {
	i, ok := p.ids.Lookup(id)
	return ok && p.heardHB.Get(i)
}

// anyEvidence reports whether any of the detection rule's three evidence
// sources vouches for id this epoch: its heartbeat was heard (fds.R-1), its
// digest arrived (fds.R-2), or some received digest lists it as heard.
func (p *Protocol) anyEvidence(id wire.NodeID) bool {
	if evidenceProbe != nil {
		evidenceProbe(p.judging)
	}
	i, ok := p.ids.Lookup(id)
	return ok && (p.heardHB.Get(i) || p.digestFrom.Get(i) || p.aliveInDigest.Get(i))
}

// evidenceProbe is nil outside tests. A test sets it to observe every
// consultation of the evidence together with whether the consulting host
// folded digests this epoch, so a reader added on a host that did not
// (judging false: aliveInDigest is empty) fails a test instead of silently
// detecting everyone.
var evidenceProbe func(judging bool)

// dchRank returns this host's 1-based rank among the snapshot's deputy
// clusterheads, or 0 if it is not a deputy.
func (p *Protocol) dchRank() int {
	for i, d := range p.snapshot.DCHs {
		if d == p.host.ID() {
			return i + 1
		}
	}
	return 0
}

// sendDigest broadcasts this host's fds.R-2 digest: the in-cluster
// heartbeats heard during fds.R-1.
func (p *Protocol) sendDigest(e wire.Epoch) {
	heard := p.heardScratch[:0]
	p.heardHB.ForEach(func(i uint32) {
		if id := p.ids.NodeID(i); p.snapshot.IsMember(id) {
			heard = append(heard, id)
		}
	})
	// Bitset order is interning order, not NID order; sort so the digest's
	// member list is byte-identical to the map-era output.
	slices.Sort(heard)
	p.heardScratch = heard
	d := &p.digestMsg
	d.NID, d.CH, d.Epoch, d.Heard = p.host.ID(), p.snapshot.CH, e, heard
	d.HasReading, d.Reading = false, 0
	if p.readingSource != nil {
		if v, ok := p.readingSource(e); ok {
			d.HasReading = true
			d.Reading = v
		}
	}
	p.host.Send(d)
}

// SetReadingSource registers a sampler whose value rides each epoch's
// digest (the aggregation service's hook; see package aggregate). Passing
// nil removes the source.
func (p *Protocol) SetReadingSource(src func(wire.Epoch) (float64, bool)) {
	p.readingSource = src
}

// detectAndAnnounce applies the failure detection rule on the CH and
// broadcasts the health-status update (fds.R-3).
//
// Rule: v failed iff (1) the CH received neither v's heartbeat in fds.R-1
// nor v's digest in fds.R-2, and (2) no received digest reflects a member's
// awareness of v's heartbeat.
func (p *Protocol) detectAndAnnounce(e wire.Epoch) {
	newFailed := p.newFailedScratch[:0]
	for _, v := range p.snapshot.Members {
		if v == p.host.ID() || p.view.IsFailed(v) || p.excused(v, e) {
			continue
		}
		if !p.anyEvidence(v) {
			newFailed = append(newFailed, v)
		}
	}
	p.newFailedScratch = newFailed
	for _, v := range newFailed {
		p.view.MarkFailed(v, e)
		p.host.Trace(trace.TypeDetect, v.String())
	}
	p.mDetect.Add(uint64(e), int64(len(newFailed)))
	if len(newFailed) > 0 {
		p.cluster.NoteFailed(newFailed)
	}
	up := p.fillUpdate(p.host.ID(), e, newFailed, false)
	up.Rescinded = p.pendingRescind
	p.pendingRescind = nil
	// The CH is the update's origin: record it as received so queries and
	// the inter-cluster forwarder see a uniform "this epoch's update".
	p.update = up
	p.updateReceived = true
	p.host.Send(up)
}

// fillUpdate rewrites the reusable health-update buffer as this epoch's
// origination. The caller owns p.updMsg until the next epoch's origination;
// newFailed is aliased, not copied (its backing scratch has the same
// one-epoch lifetime).
func (p *Protocol) fillUpdate(ch wire.NodeID, e wire.Epoch, newFailed []wire.NodeID, takeover bool) *wire.HealthUpdate {
	up := &p.updMsg
	up.From, up.CH, up.Epoch, up.Takeover = p.host.ID(), ch, e, takeover
	up.NewFailed = newFailed
	up.AllFailed = p.view.AppendFailed(up.AllFailed[:0])
	up.Rescinded = nil
	return up
}

// checkCHFailure applies the CH-failure detection rule on a deputy
// clusterhead at (or after, for lower ranks) the end of fds.R-3.
//
// Rule: the CH failed iff (1) the DCH received neither the CH's heartbeat in
// fds.R-1 nor the CH's digest in fds.R-2, (2) no received digest reflects
// awareness of the CH's heartbeat, and (3) the health-status update did not
// arrive in fds.R-3.
func (p *Protocol) checkCHFailure(e wire.Epoch) {
	ch := p.snapshot.CH
	if p.updateReceived || p.anyEvidence(ch) {
		return
	}
	if p.view.IsFailed(ch) {
		return
	}
	// The CH is judged failed: take over and broadcast the update.
	p.view.MarkFailed(ch, e)
	p.host.Trace(trace.TypeDetect, ch.String())
	p.mDetect.Add(uint64(e), 1)
	p.cluster.TakeOver()
	p.cluster.ViewInto(&p.snapshot)
	p.updateReceived = true // we originated this epoch's update
	p.newFailedScratch = append(p.newFailedScratch[:0], ch)
	up := p.fillUpdate(ch, e, p.newFailedScratch, true)
	p.update = up
	p.host.Send(up)
}

// maybeRequestForward runs at the member's report-receiving timeout: if the
// health update never arrived, broadcast a forwarding request.
func (p *Protocol) maybeRequestForward(e wire.Epoch) {
	if p.updateReceived {
		return
	}
	p.mFwdReq.Add(uint64(e), 1)
	p.fwdReqMsg = wire.ForwardRequest{NID: p.host.ID(), Epoch: e}
	p.host.Send(&p.fwdReqMsg)
}

// Handle implements node.Protocol.
func (p *Protocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	switch msg := m.(type) {
	case *wire.Heartbeat:
		p.onHeartbeat(msg)
	case *wire.Digest:
		p.onDigest(msg)
	case *wire.HealthUpdate:
		p.onHealthUpdate(msg)
	case *wire.ForwardRequest:
		p.onForwardRequest(msg)
	case *wire.ForwardedUpdate:
		p.onForwardedUpdate(msg)
	case *wire.ForwardAck:
		p.onForwardAck(msg)
	case *wire.FailureReport:
		p.onFailureReport(msg)
	case *wire.SleepNotice:
		p.onSleepNotice(msg)
	}
}

// onSleepNotice excuses the announced sleeper from failure detection until
// its declared wake epoch: a silent-by-appointment member is not a failed
// member. Deputies record excusals too (they may take over mid-nap).
func (p *Protocol) onSleepNotice(m *wire.SleepNotice) {
	if m.Until <= m.Epoch {
		return // malformed or already over
	}
	i := p.ids.Index(m.NID)
	if int(i) >= len(p.sleepUntil) {
		p.sleepUntil = append(p.sleepUntil, make([]wire.Epoch, int(i)+1-len(p.sleepUntil))...)
	}
	if cur := p.sleepUntil[i]; cur == 0 || m.Until > cur {
		if cur == 0 {
			p.sleepCount++
		}
		p.sleepUntil[i] = m.Until
	}
}

// pruneSleepers drops expired sleep excusals at the epoch boundary. excused
// only reaps lazily, on lookup — and lookups happen solely inside the CH's
// detection loop, for nodes that are members and not already believed
// failed. An excusal recorded for a node that dies during its nap (removed
// from membership or marked failed before its wake epoch), or recorded on a
// host that never runs the detection rule at all (members, deputies), was
// therefore never deleted and accreted forever. Epoch-boundary pruning
// bounds the structure by the number of currently napping nodes. An entry
// is expired once until < e: excused grants grace through epoch == until,
// so only strictly earlier wake epochs are dead weight.
func (p *Protocol) pruneSleepers(e wire.Epoch) {
	if p.sleepCount == 0 {
		return
	}
	for i, until := range p.sleepUntil {
		if until != 0 && until < e {
			p.sleepUntil[i] = 0
			p.sleepCount--
		}
	}
}

// SleepExcusals returns how many sleep excusals this host currently
// records. Expired entries are pruned at each epoch boundary, so outside a
// nap window this is zero; tests and monitors use it to pin the lifecycle.
func (p *Protocol) SleepExcusals() int { return p.sleepCount }

// excused reports whether v is an announced sleeper for epoch e (with one
// epoch of wake grace, since the sleeper's first heartbeat after waking can
// itself be lost).
func (p *Protocol) excused(v wire.NodeID, e wire.Epoch) bool {
	i, ok := p.ids.Lookup(v)
	if !ok || int(i) >= len(p.sleepUntil) {
		return false
	}
	until := p.sleepUntil[i]
	if until == 0 {
		return false
	}
	if e <= until {
		return true
	}
	p.sleepUntil[i] = 0 // nap over; stop excusing
	p.sleepCount--
	return false
}

func (p *Protocol) onHeartbeat(m *wire.Heartbeat) {
	if m.Epoch != p.epoch {
		return
	}
	// R-1 evidence is only collected by epoch participants, matching
	// onDigest's gate: a host that booted mid-epoch (active=false until the
	// next boundary) must not accumulate heartbeat evidence for an epoch it
	// never entered — finishEpoch and lowestSurvivingMember read heardHB
	// for the epoch that just ended, and pre-boundary strays would skew
	// them. (Before this gate, onHeartbeat recorded unconditionally while
	// onDigest required p.active — an inconsistency, not a design.)
	if p.active {
		p.heardHB.Set(p.ids.Index(m.NID))
	}
	// Fail-stop rescue: any heartbeat from a host this node believed
	// failed proves the belief was a false detection (crashed hosts never
	// transmit). Forget the suspicion; if we are the CH, the sender's
	// unmarked heartbeat re-admits it through the subscription path. The
	// rescue is deliberately NOT gated on p.active: stale failure beliefs
	// deserve correction whether or not this host participates this epoch.
	if p.view.IsFailed(m.NID) && p.view.ProveAlive(m.NID, m.Epoch) {
		if p.snapshot.IsCH {
			p.cluster.Readmit(m.NID)
			// This CH holds the proof of life, so it authors the
			// rescission, pinned to the heartbeat's epoch: that outranks
			// every accusation made before the heartbeat, however the
			// accuser (or this CH) learned of it.
			p.pendingRescind = appendUnique(p.pendingRescind,
				wire.Rescission{Node: m.NID, Epoch: m.Epoch})
		}
		p.mRescind.Add(uint64(p.epoch), 1)
		if p.host.Tracing() {
			p.host.Trace(trace.TypeViewUpdate, fmt.Sprintf("rescind %v", m.NID))
		}
	}
}

func (p *Protocol) onDigest(m *wire.Digest) {
	if !p.active || m.Epoch != p.epoch {
		return
	}
	p.digestFrom.Set(p.ids.Index(m.NID))
	if !p.judging {
		return
	}
	for _, id := range m.HeardIDs() {
		p.aliveInDigest.Set(p.ids.Index(id))
	}
}

// onHealthUpdate processes a health-status update, whether received directly
// from the CH/DCH or via peer forwarding.
func (p *Protocol) onHealthUpdate(m *wire.HealthUpdate) {
	if !p.active {
		// Still absorb the failure knowledge (see onFailureReport).
		p.absorb(m.NewFailed, m.Epoch, m.AllFailed, m.Rescinded)
		return
	}
	mine := m.CH == p.snapshot.CH || m.From == p.snapshot.CH
	if m.Takeover && m.CH == p.host.ID() && p.snapshot.IsCH {
		// Conflicting reports: a deputy falsely judged this operational CH
		// failed and announced a takeover. Reassert leadership.
		p.conflictSeen++
		p.mFalse.Add(uint64(m.Epoch), 1)
		p.cluster.NoteNewCH(p.host.ID(), p.host.ID())
		if p.host.Tracing() {
			p.host.Trace(trace.TypeFalseDetect, fmt.Sprintf("takeover by %v while alive", m.From))
		}
		return
	}
	if mine {
		if m.Epoch == p.epoch && !p.updateReceived {
			p.updateReceived = true
			p.update = p.storeUpdate(m)
			// Delivery latency: how long past the start of fds.R-3 (the
			// earliest instant the CH could have broadcast) the update took
			// to arrive, whether directly or via peer forwarding.
			start := p.cfg.Timing.EpochStart(p.epoch) + p.cfg.Timing.R2End()
			if now := p.host.Now(); now >= start {
				p.mUpdLat.Observe((now - start).Seconds())
			}
		}
		if m.Takeover {
			p.cluster.NoteNewCH(m.CH, m.From)
			p.snapshot.CH = m.From
		}
		local := append(append(p.failedScratch[:0], m.NewFailed...), m.AllFailed...)
		p.failedScratch = local
		p.cluster.NoteFailed(local)
	}
	// Merge failure knowledge regardless of origin cluster: overheard
	// foreign updates only improve completeness.
	if p.absorb(m.NewFailed, m.Epoch, m.AllFailed, m.Rescinded) && mine {
		// Only when our OWN cluster's update disowns us do we re-enter
		// formation (unmarked) so the next heartbeat diffusion re-admits us
		// by subscription — a foreign cluster's stale list is corrected by
		// rescind propagation, not by us abandoning our cluster.
		p.mFalse.Add(uint64(m.Epoch), 1)
		p.cluster.Demote()
		p.active = false
		p.host.Trace(trace.TypeFalseDetect, "self listed as failed")
	}
}

// storeUpdate deep-copies a delivered health update into the protocol's
// persistent buffer and returns a pointer to it. See updateStore for why a
// delivered message cannot be retained directly.
func (p *Protocol) storeUpdate(m *wire.HealthUpdate) *wire.HealthUpdate {
	st := &p.updateStore
	st.From, st.CH, st.Epoch, st.Takeover = m.From, m.CH, m.Epoch, m.Takeover
	st.NewFailed = append(st.NewFailed[:0], m.NewFailed...)
	st.AllFailed = append(st.AllFailed[:0], m.AllFailed...)
	st.Rescinded = append(st.Rescinded[:0], m.Rescinded...)
	return st
}

// onForwardRequest implements the responder side of energy-balanced peer
// forwarding: peers holding the update answer after unique, energy-aware
// waiting periods.
func (p *Protocol) onForwardRequest(m *wire.ForwardRequest) {
	if !p.cfg.PeerForwarding || !p.active || m.Epoch != p.epoch {
		return
	}
	if !p.updateReceived || p.update == nil {
		return
	}
	if p.snapshot.IsCH {
		// The paper prefers peer forwarding over CH retransmission for
		// energy balancing; the CH leaves requests to the members.
		return
	}
	if !p.snapshot.IsMember(m.NID) {
		return
	}
	s := p.forwardSlot(m.NID)
	if s == nil {
		if n := len(p.fwdFree); n > 0 {
			s = p.fwdFree[n-1]
			p.fwdFree[n-1] = nil
			p.fwdFree = p.fwdFree[:n-1]
			s.requester = m.NID
		} else {
			s = &fwdSlot{p: p, requester: m.NID}
		}
		p.fwd = append(p.fwd, s)
	} else if s.timer.Active() {
		return
	}
	s.timer = p.host.AfterArg(p.forwardWait(), fireForwardFn, s)
}

// forwardSlot returns the slot serving requester this epoch, or nil.
func (p *Protocol) forwardSlot(requester wire.NodeID) *fwdSlot {
	for _, s := range p.fwd {
		if s.requester == requester {
			return s
		}
	}
	return nil
}

// fwdSlot is one requester's peer-forward state and its timer's argument.
// An ack's Cancel hands the timer's record back to the host's pool, so
// re-arming allocates nothing, and the slot holds no copy of the update:
// p.update is fixed from the update's first receipt to the epoch boundary,
// whose sweep cancels every armed forward, so the fire sends exactly what
// arming saw.
type fwdSlot struct {
	p         *Protocol
	requester wire.NodeID
	timer     node.Timer
}

// fireForwardFn transmits an armed peer-forward. The kernel retires the
// timer before running it, so the slot reads as idle from here on.
var fireForwardFn sim.ArgHandler = func(a any) {
	s := a.(*fwdSlot)
	p := s.p
	p.mFwdAns.Add(uint64(p.epoch), 1)
	if p.host.Tracing() {
		p.host.Trace(trace.TypePeerForward, s.requester.String())
	}
	p.fwdUpdMsg = wire.ForwardedUpdate{
		Forwarder: p.host.ID(),
		Requester: s.requester,
		Update:    *p.update,
	}
	p.host.Send(&p.fwdUpdMsg)
}

// ForwardSlots reports the peer-forward slots this host holds, in use this
// epoch or pooled, and how many of them have a forward armed: not yet fired,
// acknowledged or swept.
func (p *Protocol) ForwardSlots() (held, armed int) {
	for _, s := range p.fwd {
		if s.timer.Active() {
			armed++
		}
	}
	return len(p.fwd) + len(p.fwdFree), armed
}

// forwardWait computes this peer's waiting period for a requested forward
// (Section 4.2, "Energy Considerations"). The period is unique per node —
// it is staggered by the node's position in the sorted member list, and
// NIDs are globally unique — and within its slot it shrinks as remaining
// energy grows, so among equally-ranked peers across requests the
// energy-rich volunteer sooner.
//
// The slot width (3·Thop) covers a complete forward + acknowledgment round
// trip including delivery-delay skew, so when the first forward succeeds
// every later peer overhears the ack before its own timer fires and stands
// down without transmitting.
func (p *Protocol) forwardWait() sim.Time {
	slot := 3 * p.cfg.Timing.Thop
	index := 1
	for i, id := range p.snapshot.Members {
		if id == p.host.ID() {
			index = i + 1
			break
		}
	}
	// bias in [0, Thop/2): inversely related to remaining energy.
	e := math.Max(p.host.Energy(), 0)
	frac := referenceEnergy / (referenceEnergy + e) // 1 at E=0, ->0 as E grows
	bias := sim.Time(float64(p.cfg.Timing.Thop) / 2 * frac)
	return sim.Time(index-1)*slot + bias
}

func (p *Protocol) onForwardedUpdate(m *wire.ForwardedUpdate) {
	if !p.active || m.Update.Epoch != p.epoch {
		return
	}
	if m.Requester == p.host.ID() {
		if !p.ackedForward {
			p.ackedForward = true
			p.host.Send(&wire.ForwardAck{NID: p.host.ID(), Epoch: p.epoch})
		}
		p.onHealthUpdate(&m.Update)
		return
	}
	// Promiscuous bonus: any member still missing the update adopts an
	// overheard forward (not credited by the analytic model, hence gated).
	if !p.updateReceived && !p.cfg.StrictModelMode {
		p.onHealthUpdate(&m.Update)
	}
}

// onForwardAck stands down pending forwards for the acknowledged requester:
// "the other neighbors will quit upon overhearing an acknowledgment".
func (p *Protocol) onForwardAck(m *wire.ForwardAck) {
	if m.Epoch != p.epoch {
		return
	}
	if s := p.forwardSlot(m.NID); s != nil {
		s.timer.Cancel()
	}
}

// onFailureReport merges inter-cluster failure news. Forwarding of the
// report across the backbone is the intercluster package's concern; here we
// only absorb the knowledge.
func (p *Protocol) onFailureReport(m *wire.FailureReport) {
	// Failure knowledge is merged unconditionally: a host that is still in
	// (or back in) cluster formation when a report flood passes by would
	// otherwise miss it forever, because reports are only re-flooded when
	// new failures occur ("no news is good news").
	p.absorb(m.NewFailed, m.Epoch, m.AllFailed, m.Rescinded)
	if p.active && p.snapshot.IsCH {
		p.failedScratch = append(append(p.failedScratch[:0], m.NewFailed...), m.AllFailed...)
		p.cluster.NoteFailed(p.failedScratch)
	}
}

// absorb merges received failure news and reports whether it listed this
// host. Detections in newFailed are recorded at epoch e; cumulative entries
// carry no detection epoch, so they are recorded as epoch 0 ("old"): any
// rescission may cancel them, and a genuine later detection arrives with its
// own NewFailed epoch through the report flood anyway. A claim of this
// host's own failure is a false detection — it is operational — so the
// suspicion is dropped at once.
func (p *Protocol) absorb(newFailed []wire.NodeID, e wire.Epoch, allFailed []wire.NodeID, rescinded []wire.Rescission) (selfListed bool) {
	p.view.Merge(newFailed, e)
	p.view.Merge(allFailed, 0)
	p.applyRescinds(rescinded)
	return p.view.Forget(p.host.ID())
}

// applyRescinds records the proof of life each received rescission carries
// and withdraws the suspicions it outranks: those at or before ITS pinned
// epoch, so a failure genuinely detected later survives. A received
// rescission is never re-announced — its one author is the clusterhead that
// heard the heartbeat (onHeartbeat), and the backbone floods that report once.
func (p *Protocol) applyRescinds(rs []wire.Rescission) {
	for _, r := range rs {
		p.view.ProveAlive(r.Node, r.Epoch)
	}
}

// appendUnique appends r unless its node is already listed (lists are tiny).
func appendUnique(rs []wire.Rescission, r wire.Rescission) []wire.Rescission {
	for _, x := range rs {
		if x.Node == r.Node {
			return rs
		}
	}
	return append(rs, r)
}

// cancelForwardTimers ends the epoch's forwards and pools their slots. Cancel
// hands an armed timer's record back and is inert on a fired or acked one;
// the kernel never reads a canceled event's argument, so a pooled slot is
// free for the next requester while its dead event waits in the queue.
func (p *Protocol) cancelForwardTimers() {
	for i, s := range p.fwd {
		s.timer.Cancel()
		p.fwdFree = append(p.fwdFree, s)
		p.fwd[i] = nil
	}
	p.fwd = p.fwd[:0]
}

// --- queries -----------------------------------------------------------------

// View returns the host's failure knowledge.
func (p *Protocol) View() *membership.View { return &p.view }

// KnownFailed returns the hosts this node believes failed, in NID order.
func (p *Protocol) KnownFailed() []wire.NodeID { return p.view.Failed() }

// IsSuspected reports whether this host believes id failed.
func (p *Protocol) IsSuspected(id wire.NodeID) bool { return p.view.IsFailed(id) }

// Epoch returns the current FDS epoch at this host.
func (p *Protocol) Epoch() wire.Epoch { return p.epoch }

// CurrentUpdate returns this epoch's health-status update as known to this
// host (for the CH: the update it broadcast; for members: the one received),
// and whether one exists yet.
func (p *Protocol) CurrentUpdate() (wire.HealthUpdate, bool) {
	if !p.updateReceived || p.update == nil {
		return wire.HealthUpdate{}, false
	}
	return *p.update, true
}

// UpdateReceived reports whether this host obtained the current epoch's
// health-status update (directly or via peer forwarding). The completeness
// experiments sample it just before the next epoch begins.
func (p *Protocol) UpdateReceived() bool { return p.updateReceived }

// Active reports whether the host participated in the current epoch (it was
// a marked cluster member at the epoch start).
func (p *Protocol) Active() bool { return p.active }

// Conflicts returns how many conflicting takeover announcements this host
// observed for clusters it heads (the Section 4.2 conflicting-reports
// scenario; expected to be extremely rare).
func (p *Protocol) Conflicts() int { return p.conflictSeen }
