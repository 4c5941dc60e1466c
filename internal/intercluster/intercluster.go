// Package intercluster implements Section 4.3: robust, energy-frugal
// forwarding of failure reports across the cluster backbone.
//
// When a cluster's health-status update announces newly detected failures,
// the gateways bridging that cluster to its neighbors forward the update as
// a FailureReport to the neighboring clusterheads. Each receiving
// clusterhead rebroadcasts the report once, which simultaneously (a) relays
// it toward its own gateways for further flooding and (b) serves as the
// *implicit acknowledgment* the upstream forwarders are listening for —
// explicit acknowledgments would double the message count, which the paper
// rules out on energy grounds.
//
// Loss tolerance per hop:
//
//   - A clusterhead that transmitted a report expects to overhear a gateway
//     forwarding it toward each neighboring cluster within 2·Thop and
//     retransmits (a bounded number of times) otherwise.
//   - The primary gateway forwards immediately, waits (n+1)·2·Thop for the
//     downstream CH's implicit ack, and re-forwards once if it never comes.
//   - Backup gateways (rank k = 1..n−1 among the remaining candidates) arm
//     timers of k·2·Thop; if neither the primary nor a lower-ranked backup
//     got the report through by then, they forward it themselves, then
//     release on overhearing the implicit ack.
//
// De-duplication is by (origin CH, sequence); a clusterhead rebroadcasts
// each report at most once (plus bounded retransmissions), so flooding over
// the backbone terminates. A report's sequence is its epoch, and the next
// epoch's cumulative update supersedes it ("no news is good news"), so a host
// keeps a report's state only while the report can still be in flight: at
// the epoch boundary reportEpochs after the report's epoch, a state no timer
// holds is recycled, and a copy heard after that is stale and ignored here
// (fds still merges its failed list).
//
// A report either carries news — NewFailed or Rescinded, flooded across the
// whole backbone as above — or is cumulative-only: the catch-up a clusterhead
// sends when a neighbor cluster first appears. That one travels a single
// adjacency: the origin's gateways forward it, each receiving clusterhead
// rebroadcasts it once for its members, and nobody engages on that
// rebroadcast. Every step is traced under one cause token (see note).
package intercluster

import (
	"fmt"
	"slices"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// Config parameterizes the forwarder.
type Config struct {
	// Timing must equal the cluster protocol's timing; New panics otherwise.
	Timing cluster.Timing
	// BGWAssist enables backup-gateway assisted forwarding; the ablation
	// benchmarks disable it to quantify its contribution.
	BGWAssist bool
	// ImplicitAcks enables the overhear-based retransmission scheme. When
	// disabled, every hop is fire-and-forget (the paper's strawman).
	ImplicitAcks bool
}

// CHRetries bounds how many times a clusterhead retransmits a report for
// which it overheard no gateway forwarding.
const CHRetries = 2

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(t cluster.Timing) Config {
	return Config{Timing: t, BGWAssist: true, ImplicitAcks: true}
}

// reportEpochs is how many epoch boundaries a report's state outlives its
// epoch. At the boundary of epoch seq+reportEpochs, a state with no armed
// timer is recycled, and a later copy of the report is stale. One boundary
// is too few: an orphan takeover is announced on the boundary after its
// epoch, and its report was still being received 1.2 epochs after its epoch
// began on a dense field (EXPERIMENTS.md "Report state retires").
const reportEpochs = 2

// reportState is everything this host knows about one report while the
// report can still be in flight. A host holds a few of them at a time with a
// handful of transmitters and downstream targets each, so every set is a
// short slice scanned linearly. The record is sized to fit the 128-byte
// allocation class (TestReportRecordSizes): it keeps the report's identity
// and lists, not a copied wire.FailureReport, whose Sender and TargetCH a
// state never uses. A state retires to the host's free list at the epoch
// boundary reportEpochs after its epoch once armed is zero, with its duties,
// its sender set and its lists' storage kept for the next report.
type reportState struct {
	p *Protocol
	// next links the state into the host's live list or its free list.
	next *reportState
	// engaged tracks gateway duty per downstream clusterhead, as an
	// intrusive list (duties are only ever searched by target, never
	// ordered, so list order is irrelevant).
	engaged *gwDuty
	seq     uint64
	epoch   wire.Epoch
	// failed holds the report's NewFailed then its AllFailed, split at
	// nNew: one slice, one backing array, reused across occupants.
	failed    []wire.NodeID
	rescinded []wire.Rescission
	// senders records every host overheard transmitting this report;
	// implicit acknowledgments are lookups in this set.
	senders []wire.NodeID
	origin  wire.NodeID
	// armed counts the pending timers whose callback holds this state: the
	// CH watch, duty timers and deferred updJobs. A state is recycled only
	// at zero ("free means gone").
	armed       int32
	nNew        int32
	retriesLeft int16
	// rebroadcast marks that this host (as CH) already relayed the report.
	rebroadcast bool
}

// senderSetCap is a sender set's capacity on first use: the average set on
// the reference field holds 5 hosts, the largest 19.
const senderSetCap = 8

// sender reports whether id has been overheard transmitting this report.
func (st *reportState) sender(id wire.NodeID) bool {
	return slices.Contains(st.senders, id)
}

func (st *reportState) addSender(id wire.NodeID) {
	if st.sender(id) {
		return
	}
	if st.senders == nil {
		st.senders = make([]wire.NodeID, 0, senderSetCap)
	}
	st.senders = append(st.senders, id)
}

// newFailed and allFailed are the report's two failed lists, both views of
// st.failed.
func (st *reportState) newFailed() []wire.NodeID { return st.failed[:st.nNew] }
func (st *reportState) allFailed() []wire.NodeID { return st.failed[st.nNew:] }

// cumulativeOnly reports whether the report carries no news — neither a new
// failure nor a rescission, only the origin's cumulative list. That is the
// catch-up on a new adjacency, which travels one adjacency and stops.
func (st *reportState) cumulativeOnly() bool {
	return st.nNew == 0 && len(st.rescinded) == 0
}

// duty returns the forwarding duty toward target, if one exists.
func (st *reportState) duty(target wire.NodeID) *gwDuty {
	for d := st.engaged; d != nil; d = d.next {
		if d.target == target {
			return d
		}
	}
	return nil
}

// addDuty records a fresh duty toward target at the head of the report's
// intrusive duty list, taking it from the host's free list when it can.
func (st *reportState) addDuty(target wire.NodeID) *gwDuty {
	p := st.p
	d := p.freeDuties
	if d != nil {
		p.freeDuties = d.next
	} else {
		d = new(gwDuty)
	}
	*d = gwDuty{st: st, target: target, next: st.engaged}
	st.engaged = d
	return d
}

// arm schedules the duty's timer; the timer holds the duty's state.
func (d *gwDuty) arm(delay sim.Time, kind uint8) {
	d.kind = d.kind&dutyDone | kind
	d.st.armed++
	d.timer = d.st.p.host.AfterArg(delay, fireDutyFn, d)
}

// done reports whether the duty is over: its target evidently has the
// report, or its last forward went out without implicit acks to wait for.
func (d *gwDuty) done() bool { return d.kind&dutyDone != 0 }

func (d *gwDuty) setDone() { d.kind |= dutyDone }

// release marks the duty done and cancels its pending timer.
func (d *gwDuty) release() {
	d.setDone()
	if d.timer.Active() {
		d.timer.Cancel()
		d.st.armed--
	}
}

// gwDuty kinds: what fireDutyFn does when the duty's timer fires. The kind
// shares its byte with the dutyDone bit.
const (
	dutyBGW    = iota // backup-gateway standby (engageTarget rank > 1)
	dutyRefwd         // primary's re-forward / release watch (forwardNow)
	dutyTwoHop        // border node's two-hop relay (engageTwoHop)
	dutyInward        // member's inward relay toward its own CH

	dutyKindMask = 0x7f
	dutyDone     = 0x80 // set by done duties, whatever their kind
)

// gwDuty is a gateway candidate's forwarding state toward one target CH. It
// carries everything its timer callback needs, so arming a duty schedules the
// shared fireDutyFn with the duty itself as argument — no per-arming closure.
// A duty lives and retires with its report's state, and fits the 48-byte
// allocation class (TestReportRecordSizes). n is an int16: scenario fields
// have more than 127 candidates for one pair.
type gwDuty struct {
	st        *reportState
	next      *gwDuty // intrusive link in the report's engaged list, or the host's free list
	target    wire.NodeID
	n         int16 // candidate count for the re-forward wait
	kind      uint8 // a duty kind, plus dutyDone
	forwarded uint8
	timer     node.Timer
}

// fireDutyFn is the one timer callback behind every gateway duty. A plain
// function declaration (not a package var) so its mutual recursion with
// forwardNow is not an initialization cycle; the conversion to sim.ArgHandler
// at the call sites is a static funcval, not an allocation.
func fireDutyFn(a any) {
	d := a.(*gwDuty)
	st := d.st
	p := st.p
	st.armed--
	switch d.kind & dutyKindMask {
	case dutyBGW:
		if d.done() || st.sender(d.target) {
			d.setDone()
			return
		}
		p.forwardNow(d, trace.TypeBGWAssist, "bgw")
	case dutyRefwd:
		if d.done() || st.sender(d.target) {
			d.setDone()
			return
		}
		if d.forwarded >= 2 {
			return // give up; the next epoch's cumulative report catches up
		}
		p.forwardNow(d, trace.TypeRetransmit, "gw-refwd")
	case dutyTwoHop:
		if d.done() || p.targetHasReport(st, d.target) {
			d.setDone()
			return
		}
		d.forwarded++
		p.send(st, d.target, trace.TypeReportForward, "two-hop")
	case dutyInward:
		if d.done() || p.clusterHasReport(st) {
			d.setDone()
			return
		}
		d.forwarded++
		p.send(st, p.cluster.CH(), trace.TypeReportForward, "inward")
	}
}

// chWatchFn is the shared implicit-ack-watch callback (armCHWatch).
func chWatchFn(a any) {
	st := a.(*reportState)
	st.armed--
	st.p.checkCHWatch(st)
}

// Protocol is the per-host inter-cluster forwarder.
type Protocol struct {
	cfg     Config
	host    *node.Host
	cluster *cluster.Protocol
	fds     *fds.Protocol

	// live lists the reports whose state is kept, newest first; freeStates,
	// freeDuties and freeJobs are the retired records, kept for reuse. All
	// four are intrusive lists through the records' next fields.
	live       *reportState
	freeStates *reportState
	freeDuties *gwDuty
	freeJobs   *updJob
	epoch      wire.Epoch
	// seen counts distinct reports taken into state, stale the copies ignored
	// because their report had retired (or was first heard that late).
	seen, stale int

	// knownNeighbors tracks, on a clusterhead, which adjacent clusters
	// have been seen before: a NEW adjacency (clusters forming or
	// re-forming next door) triggers a catch-up report carrying the
	// cumulative failed set, so knowledge holes left by topology churn
	// heal instead of waiting for the next failure. A clusterhead has a
	// handful of neighbors, so the set is a short slice.
	knownNeighbors []wire.NodeID

	// Persistent epoch callbacks, the reusable transmit buffer (safe because
	// every transport encodes during Send), and reused query scratch.
	epochFn, originFn func()
	txMsg             wire.FailureReport
	nbScratch         []wire.NodeID
	candScratch       []wire.NodeID
	bridgedScratch    []wire.NodeID
	borderScratch     []wire.NodeID
	failedScratch     []wire.NodeID
}

// New returns a forwarder bound to the co-resident cluster and FDS
// protocols.
func New(cfg Config, cl *cluster.Protocol, f *fds.Protocol) *Protocol {
	if cl == nil || f == nil {
		panic("intercluster: nil cluster or fds protocol")
	}
	if cfg.Timing != cl.Timing() {
		panic("intercluster: timing differs from the cluster protocol's")
	}
	return &Protocol{cfg: cfg, cluster: cl, fds: f}
}

// Start implements node.Protocol.
func (p *Protocol) Start(h *node.Host) {
	p.host = h
	p.epochFn = func() { p.runEpoch(p.cfg.Timing.EpochOf(p.host.Now())) }
	p.originFn = func() { p.maybeOriginate(p.epoch) }
	p.scheduleEpoch(p.cfg.Timing.FirstEpochAt(h.Now()))
}

func (p *Protocol) scheduleEpoch(e wire.Epoch) {
	at := p.cfg.Timing.EpochStart(e)
	p.host.AfterBatched(at-p.host.Now(), p.epochFn)
}

// runEpoch retires the reports that have aged out and arms the per-epoch
// origination check: shortly after the end of fds.R-3 (leaving room for the
// deputy-takeover cascade), a clusterhead whose own update announced new
// failures seeds the backbone flood.
func (p *Protocol) runEpoch(e wire.Epoch) {
	p.epoch = e
	p.retire()
	p.scheduleEpoch(e + 1)
	t := p.cfg.Timing
	p.host.AfterBatched(t.R3End()+t.Thop/4, p.originFn)
}

// maybeOriginate runs on every host each epoch; a clusterhead acts when its
// epoch update carried news (origination) or a new neighbor cluster
// appeared (catch-up).
func (p *Protocol) maybeOriginate(e wire.Epoch) {
	if !p.cluster.IsCH() {
		return
	}
	newNeighbor := false
	p.nbScratch = p.cluster.AppendNeighborCHs(p.nbScratch[:0])
	for _, nb := range p.nbScratch {
		if !slices.Contains(p.knownNeighbors, nb) {
			p.knownNeighbors = append(p.knownNeighbors, nb)
			newNeighbor = true
		}
	}

	if up, ok := p.fds.CurrentUpdate(); ok && up.Epoch == e &&
		(len(up.NewFailed) > 0 || len(up.Rescinded) > 0) {
		r := reportFromUpdate(&up)
		p.relay(p.getState(&r))
		return
	}

	// Catch-up on new adjacency: share what this cluster knows so a
	// freshly (re)formed neighbor is not left waiting for the next
	// failure to learn old news. The report is cumulative-only, which
	// relay and onReport read as "one adjacency, then stop".
	if !newNeighbor {
		return
	}
	p.failedScratch = p.fds.View().AppendFailed(p.failedScratch[:0])
	if len(p.failedScratch) == 0 {
		return
	}
	st := p.getState(&wire.FailureReport{
		OriginCH:  p.host.ID(),
		Seq:       uint64(e),
		Epoch:     e,
		AllFailed: p.failedScratch,
	})
	if st.rebroadcast {
		return
	}
	st.rebroadcast = true
	st.retriesLeft = CHRetries
	p.send(st, wire.NoNode, trace.TypeReportForward, "catch-up")
	p.armCHWatch(st)
}

// reportFromUpdate builds the canonical report a health update gives rise
// to. Every gateway derives the identical key, so de-duplication works
// without coordination.
func reportFromUpdate(up *wire.HealthUpdate) wire.FailureReport {
	return wire.FailureReport{
		OriginCH:  up.From,
		Seq:       uint64(up.Epoch),
		Epoch:     up.Epoch,
		NewFailed: up.NewFailed,
		AllFailed: up.AllFailed,
		Rescinded: up.Rescinded,
	}
}

// expired reports whether a report of sequence seq is past its state's
// lifetime at the current epoch: seq+reportEpochs <= epoch, without the
// overflow a hostile seq could cause.
func (p *Protocol) expired(seq uint64) bool {
	e := uint64(p.epoch)
	return e >= reportEpochs && seq <= e-reportEpochs
}

// state returns the live state of report (origin, seq), or nil.
func (p *Protocol) state(origin wire.NodeID, seq uint64) *reportState {
	for st := p.live; st != nil; st = st.next {
		if st.seq == seq && st.origin == origin {
			return st
		}
	}
	return nil
}

// getState returns the live state for the report content identifies,
// creating it from content on first sight. It returns nil for a stale copy:
// one of a report that has no live state and has expired, which the
// forwarder ignores. Creation copies content's lists into the state's own:
// content usually derives from a delivered message (or a health update
// aliasing the FDS's reusable buffer), whose slices are only valid during
// the current handler, while reportState lives for epochs of retransmission.
// A recycled state's storage is reused.
func (p *Protocol) getState(content *wire.FailureReport) *reportState {
	if st := p.state(content.OriginCH, content.Seq); st != nil {
		return st
	}
	if p.expired(content.Seq) {
		p.stale++
		return nil
	}
	st := p.freeStates
	if st != nil {
		p.freeStates = st.next
	} else {
		st = &reportState{p: p}
	}
	st.origin, st.seq, st.epoch = content.OriginCH, content.Seq, content.Epoch
	st.failed = append(append(st.failed[:0], content.NewFailed...), content.AllFailed...)
	st.nNew = int32(len(content.NewFailed))
	st.rescinded = append(st.rescinded[:0], content.Rescinded...)
	st.next = p.live
	p.live = st
	p.seen++
	return st
}

// retire moves every expired state that no timer holds to the free list and
// its duties to the duty free list.
func (p *Protocol) retire() {
	for link := &p.live; *link != nil; {
		st := *link
		if st.armed > 0 || !p.expired(st.seq) {
			link = &st.next
			continue
		}
		*link = st.next
		for d := st.engaged; d != nil; {
			next := d.next
			*d = gwDuty{next: p.freeDuties}
			p.freeDuties = d
			d = next
		}
		*st = reportState{
			p:         p,
			next:      p.freeStates,
			failed:    st.failed[:0],
			rescinded: st.rescinded[:0],
			senders:   st.senders[:0],
		}
		p.freeStates = st
	}
}

// note traces one backbone step of a report in the lineage grammar
// "<cause> origin=<CH> seq=<n>[ -> <target>]": every report event's Detail
// starts with the cause token, which is what fdstrace counts by.
func (p *Protocol) note(t trace.EventType, cause string, st *reportState, target wire.NodeID) {
	if !p.host.Tracing() {
		return
	}
	detail := fmt.Sprintf("%s origin=%v seq=%d", cause, st.origin, st.seq)
	if target != wire.NoNode {
		detail += fmt.Sprintf(" -> %v", target)
	}
	p.host.Trace(t, detail)
}

// send traces (note) and broadcasts the report stamped with this host as
// sender. The reusable buffer aliases the state's lists, which is safe
// because Send encodes before returning.
func (p *Protocol) send(st *reportState, target wire.NodeID, t trace.EventType, cause string) {
	p.note(t, cause, st, target)
	p.txMsg = wire.FailureReport{
		OriginCH:  st.origin,
		Seq:       st.seq,
		Epoch:     st.epoch,
		NewFailed: st.newFailed(),
		AllFailed: st.allFailed(),
		Rescinded: st.rescinded,
		Sender:    p.host.ID(),
		TargetCH:  target,
	}
	p.host.Send(&p.txMsg)
}

// --- clusterhead side --------------------------------------------------------

// relay handles a report reaching a clusterhead: rebroadcast once (the
// implicit ack for the upstream hop and the trigger for the downstream
// gateways), then watch for downstream forwarding. A cumulative-only report
// ends here: the rebroadcast informs this cluster's members, no gateway
// engages on it (onReport), so there is nothing downstream to watch for.
func (p *Protocol) relay(st *reportState) {
	if st.rebroadcast {
		return
	}
	st.rebroadcast = true
	if st.origin == p.host.ID() {
		// This CH's own news, noticed at the end of fds.R-3 (maybeOriginate)
		// or on the first echo from a neighbor, whichever comes first. Its
		// health update was the hop-0 transmission and already reached the
		// gateways: it transmits nothing now, only arms the implicit-ack
		// watch, which retransmits if no gateway forwarding is overheard.
		cause := "origin-new"
		if st.nNew == 0 {
			cause = "origin-rescind"
		}
		p.note(trace.TypeReportForward, cause, st, wire.NoNode)
	} else {
		p.send(st, wire.NoNode, trace.TypeReportForward, "relay")
		if st.cumulativeOnly() {
			return
		}
	}
	st.retriesLeft = CHRetries
	p.armCHWatch(st)
}

// armCHWatch schedules the 2·Thop implicit-ack check: for every neighboring
// cluster, some gateway candidate (or the neighbor CH itself) must have been
// overheard transmitting the report; otherwise retransmit.
func (p *Protocol) armCHWatch(st *reportState) {
	if !p.cfg.ImplicitAcks {
		return
	}
	st.armed++
	p.host.AfterArg(2*p.cfg.Timing.Thop, chWatchFn, st)
}

func (p *Protocol) checkCHWatch(st *reportState) {
	if !p.cluster.IsCH() {
		return
	}
	if p.neighborsCovered(st) || st.retriesLeft <= 0 {
		return
	}
	st.retriesLeft--
	p.send(st, wire.NoNode, trace.TypeRetransmit, "ch-retry")
	p.armCHWatch(st)
}

// neighborsCovered reports whether, for every known neighboring cluster,
// an implicit acknowledgment has been overheard.
func (p *Protocol) neighborsCovered(st *reportState) bool {
	me := p.host.ID()
	p.nbScratch = p.cluster.AppendNeighborCHs(p.nbScratch[:0])
	for _, nb := range p.nbScratch {
		if nb == st.origin || st.sender(nb) {
			continue // the origin already has it; a transmitting CH has it
		}
		covered := false
		p.candScratch = p.cluster.AppendGatewayCandidates(p.candScratch[:0], me, nb)
		for _, cand := range p.candScratch {
			if st.sender(cand) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// --- gateway side -------------------------------------------------------------

// engage puts this gateway candidate on duty for forwarding the report from
// the cluster of viaCH toward every other cluster it bridges with viaCH.
func (p *Protocol) engage(st *reportState, viaCH wire.NodeID) {
	p.bridgedScratch = p.appendBridgedWith(p.bridgedScratch[:0], viaCH)
	for _, target := range p.bridgedScratch {
		if target == st.origin || st.sender(target) {
			continue // downstream already has it
		}
		p.engageTarget(st, viaCH, target)
	}
	// Distributed-gateway fallback (Section 3's "node located outside two
	// clusters" option): when the trigger came from this host's own CH and
	// an adjacent cluster is reachable only through a border peer — no
	// direct gateway candidate for the pair is known — relay toward it after
	// the one-hop gateways' window.
	if viaCH != p.cluster.CH() {
		return
	}
	p.borderScratch = p.cluster.AppendBorderClusters(p.borderScratch[:0])
	for _, target := range p.borderScratch {
		if target == st.origin || st.sender(target) {
			continue
		}
		if _, n, _ := p.cluster.GWRank(viaCH, target); n > 0 {
			continue // a direct gateway serves the pair
		}
		p.engageTwoHop(st, target)
	}
}

// engageTwoHop arms a border node's relay toward a cluster it cannot reach
// directly: wait out the direct-gateway window, then transmit once unless a
// member of the target cluster has evidently already received the report.
func (p *Protocol) engageTwoHop(st *reportState, target wire.NodeID) {
	duty := st.duty(target)
	if duty != nil && (duty.done() || duty.timer.Active() || duty.forwarded > 0) {
		return
	}
	if duty == nil {
		duty = st.addDuty(target)
	}
	// NID-keyed jitter desynchronizes concurrent border forwarders.
	jitter := sim.Time(uint64(p.host.ID()) * uint64(p.cfg.Timing.Thop) / 7 % uint64(p.cfg.Timing.Thop))
	duty.arm(2*p.cfg.Timing.Thop+jitter, dutyTwoHop)
}

// targetHasReport reports whether the target clusterhead, or any overheard
// member of its cluster, has evidently transmitted the report already.
func (p *Protocol) targetHasReport(st *reportState, target wire.NodeID) bool {
	if st.sender(target) {
		return true
	}
	for _, sender := range st.senders {
		if p.cluster.IsBorderPeer(target, sender) {
			return true
		}
	}
	return false
}

// maybeRelayInward runs on an ordinary member that received a report
// addressed to its own clusterhead from outside the cluster (the second hop
// of a distributed gateway): pass it on to the CH unless someone in the
// cluster evidently has it already.
func (p *Protocol) maybeRelayInward(st *reportState, from wire.NodeID) {
	cl := p.cluster
	if cl.IsCH() || !cl.Marked() {
		return
	}
	if cl.IsMember(from) || from == cl.CH() {
		return // an insider sent it; normal paths apply
	}
	duty := st.duty(cl.CH())
	if duty != nil && (duty.done() || duty.timer.Active() || duty.forwarded > 0) {
		return
	}
	if duty == nil {
		duty = st.addDuty(cl.CH())
	}
	// Spread relays over two round times so earlier relayers' (or the own
	// CH's) transmissions suppress the rest.
	jitter := sim.Time(uint64(p.host.ID()) * uint64(p.cfg.Timing.Thop) / 5 % uint64(2*p.cfg.Timing.Thop))
	duty.arm(jitter, dutyInward)
}

// clusterHasReport reports whether this host's own CH or any fellow member
// has been overheard transmitting the report.
func (p *Protocol) clusterHasReport(st *reportState) bool {
	if st.sender(p.cluster.CH()) {
		return true
	}
	for _, sender := range st.senders {
		if sender != p.host.ID() && p.cluster.IsMember(sender) {
			return true
		}
	}
	return false
}

// appendBridgedWith appends the clusterheads this host bridges to from viaCH
// (i.e. the partners of every candidate pair involving viaCH that this host
// belongs to) to dst, sorted for determinism.
func (p *Protocol) appendBridgedWith(dst []wire.NodeID, viaCH wire.NodeID) []wire.NodeID {
	cl := p.cluster
	switch {
	case !cl.Marked():
	case cl.CH() == viaCH:
		dst = cl.AppendOtherCHs(dst)
	case cl.HearsCH(viaCH):
		// Trigger came from a foreign CH we can hear; we bridge it to our
		// own cluster (and only there — feature F3).
		dst = append(dst, cl.CH())
	}
	return dst
}

func (p *Protocol) engageTarget(st *reportState, viaCH, target wire.NodeID) {
	duty := st.duty(target)
	if duty != nil && (duty.done() || duty.timer.Active() || duty.forwarded > 0) {
		return
	}
	if duty == nil {
		duty = st.addDuty(target)
	}
	rank, n, isCand := p.cluster.GWRank(viaCH, target)
	if !isCand {
		return
	}
	hop := 2 * p.cfg.Timing.Thop
	duty.n = int16(n)
	switch {
	case rank == 1:
		// Primary gateway: forward immediately, then watch for the
		// downstream CH's implicit ack.
		p.forwardNow(duty, trace.TypeReportForward, "gw-forward")
	case p.cfg.BGWAssist:
		// Backup gateway (paper rank k-1): arm the staggered standby
		// timer; only act if nobody got the report through first.
		duty.arm(sim.Time(rank-1)*hop, dutyBGW)
	}
}

// forwardNow transmits toward the duty's target and, when implicit acks are
// on, arms the (n+1)·2·Thop re-forward / release timer.
func (p *Protocol) forwardNow(duty *gwDuty, t trace.EventType, cause string) {
	duty.forwarded++
	p.send(duty.st, duty.target, t, cause)
	if !p.cfg.ImplicitAcks {
		duty.setDone()
		return
	}
	duty.arm(sim.Time(duty.n+1)*2*p.cfg.Timing.Thop, dutyRefwd)
}

// --- message handling ---------------------------------------------------------

// Handle implements node.Protocol.
func (p *Protocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	switch msg := m.(type) {
	case *wire.FailureReport:
		p.onReport(msg)
	case *wire.HealthUpdate:
		p.onUpdate(msg)
	}
}

// onReport processes every overheard report transmission: it is evidence
// (an implicit ack), possibly a relay trigger (on a CH), and possibly a
// gateway-duty trigger (when the transmitter is a CH this host bridges).
func (p *Protocol) onReport(m *wire.FailureReport) {
	st := p.getState(m)
	if st == nil {
		return // stale: the report has retired
	}
	st.addSender(m.Sender)
	// Release any duty toward a CH that evidently has the report.
	if duty := st.duty(m.Sender); duty != nil {
		duty.release()
	}

	// A cumulative-only report rebroadcast by a clusterhead other than its
	// origin has travelled its one adjacency: whoever hears it learns from it
	// (fds.onFailureReport), but nobody relays or engages on it. What stays
	// live is the origin's own transmission and anything addressed to a CH
	// (a gateway's forward, the second hop of a distributed gateway).
	if st.cumulativeOnly() && m.Sender != m.OriginCH && m.TargetCH == wire.NoNode {
		return
	}

	if p.cluster.IsCH() {
		if m.TargetCH == p.host.ID() || m.TargetCH == wire.NoNode {
			if p.host.Tracing() {
				p.host.Trace(trace.TypeReportDeliver, fmt.Sprintf("origin=%v seq=%d", m.OriginCH, m.Seq))
			}
			p.relay(st)
		}
		return
	}
	// A clusterhead transmitting a report triggers the gateways bridging
	// it onward (overhearing suffices; no addressing is needed).
	p.engage(st, m.Sender)
	// A report transmission from outside the cluster — addressed to our CH
	// (the second hop of a distributed gateway) or a foreign clusterhead's
	// rebroadcast overheard across the boundary — is relayed inward unless
	// the cluster evidently has it.
	if m.TargetCH == p.cluster.CH() || m.TargetCH == wire.NoNode {
		p.maybeRelayInward(st, m.Sender)
	}
}

// onUpdate turns a health update announcing new failures into gateway duty:
// this is the origination hop, where the update itself plays the role of
// the CH's hop-0 transmission.
func (p *Protocol) onUpdate(m *wire.HealthUpdate) {
	if len(m.NewFailed) == 0 && len(m.Rescinded) == 0 {
		return
	}
	r := reportFromUpdate(m)
	st := p.getState(&r)
	if st == nil {
		return // stale: the report has retired
	}
	st.addSender(m.From)
	if p.cluster.IsCH() {
		// A foreign cluster's update overheard directly by this CH: the
		// report content has effectively arrived; relay it.
		if m.From != p.host.ID() && m.CH != p.host.ID() {
			p.relay(st)
		}
		return
	}
	// Gateways act at the end of fds.R-3 (after the takeover cascade), per
	// the paper; the update may arrive during R-3, so delay until then.
	tEnd := p.cfg.Timing.EpochStart(m.Epoch) + p.cfg.Timing.R3End() + p.cfg.Timing.Thop/8
	delay := tEnd - p.host.Now()
	j := p.freeJobs
	if j != nil {
		p.freeJobs = j.next
	} else {
		j = new(updJob)
	}
	*j = updJob{st: st, via: m.From, oldCH: m.CH, takeover: m.Takeover}
	st.armed++
	p.host.AfterArg(delay, fireUpdJobFn, j)
}

// updJob carries one deferred gateway engagement (onUpdate's end-of-R-3
// delay) through the kernel. It returns to the host's free list as it
// fires.
type updJob struct {
	st       *reportState
	next     *updJob // intrusive link in the host's free list
	via      wire.NodeID
	oldCH    wire.NodeID
	takeover bool
}

func fireUpdJobFn(a any) {
	j := a.(*updJob)
	st, via, oldCH, takeover := j.st, j.via, j.oldCH, j.takeover
	p := st.p
	*j = updJob{next: p.freeJobs}
	p.freeJobs = j
	st.armed--
	if takeover {
		// Candidate pairs are still keyed by the failed CH until gateways
		// re-register; rank lookups must use the old CH while the targets
		// come from this gateway's current bridging set.
		if ch := p.cluster.CH(); ch != via { // we bridge the takeover cluster from outside
			p.bridgedScratch = append(p.bridgedScratch[:0], ch)
		} else {
			p.bridgedScratch = p.cluster.AppendOtherCHs(p.bridgedScratch[:0])
		}
		for _, target := range p.bridgedScratch {
			if target == st.origin || st.sender(target) {
				continue
			}
			p.engageTarget(st, oldCH, target)
		}
	} else {
		p.engage(st, via)
	}
}

// --- queries -------------------------------------------------------------------

// Seen reports whether this host holds the report identified by origin and
// seq, or would ignore a copy of it as stale: a report whose state has
// retired counts as seen.
func (p *Protocol) Seen(origin wire.NodeID, seq uint64) bool {
	return p.state(origin, seq) != nil || p.expired(seq)
}

// ReportCount returns how many distinct reports this host has taken into
// state.
func (p *Protocol) ReportCount() int { return p.seen }

// LiveReports returns how many report states this host holds now.
func (p *Protocol) LiveReports() int { return listLen(p.live) }

// PooledReports returns how many retired report states wait for reuse.
func (p *Protocol) PooledReports() int { return listLen(p.freeStates) }

func listLen(st *reportState) int {
	n := 0
	for ; st != nil; st = st.next {
		n++
	}
	return n
}

// StaleCopies returns how many report copies this host ignored because the
// report had expired with no state held for it.
func (p *Protocol) StaleCopies() int { return p.stale }
