// Package cluster implements the distributed cluster-formation algorithm of
// Section 3, a lowest-ID variant of the Baker/Ephremides and Gerla/Tsai
// algorithms with the paper's features F1–F5:
//
//	F1: clusters partially overlap, so gateways connect directly to two or
//	    more clusterheads and multiple gateway candidates usually exist;
//	F2: high density is exploited to designate deputy clusterheads (DCHs)
//	    and backup gateways (BGWs);
//	F3: every gateway is affiliated with exactly one cluster;
//	F4: the algorithm has no termination rule — iterations continue every
//	    epoch so newly arriving (or previously missed) hosts are admitted;
//	F5: the first round of each iteration is the epoch's heartbeat
//	    diffusion, shared with the failure detection service.
//
// A cluster is a unit disk centered on its clusterhead: every member is a
// one-hop neighbor of the CH, so any two members are at most two hops apart.
//
// The protocol communicates exclusively through broadcast messages and the
// promiscuous receiving mode; there is no out-of-band state sharing between
// hosts. Within a host, the failure detection service (package fds) calls
// the exported mutators (NoteFailed, TakeOver, NoteNewCH) because a host
// never hears its own transmissions.
package cluster

import (
	"cmp"
	"slices"

	"clusterfds/internal/dense"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// Config parameterizes the formation algorithm.
type Config struct {
	Timing Timing
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{Timing: DefaultTiming()}
}

const (
	// maxDCH is how many deputy clusterheads a CH designates (feature F2).
	maxDCH = 2
	// declareBackoffFrac bounds the RCC-style random backoff before a
	// clusterhead declaration, as a fraction of Thop. Random competition
	// resolves concurrent conflicting CH declarations (paper footnote 1).
	declareBackoffFrac = 0.5
	// staleAfter is how many epochs a foreign clusterhead or border peer
	// stays "heard" after it was last heard: AppendOtherCHs, HearsCH, the
	// gateway registration and AppendBorderClusters all read it.
	staleAfter = 3
)

// View is a copy of a host's cluster state: View and ViewInto fill it, and
// it reads the same however the protocol changes afterwards.
type View struct {
	// Marked reports whether the host has been admitted to a cluster.
	Marked bool
	// CH is the host's clusterhead (== the host itself for a CH).
	CH wire.NodeID
	// IsCH reports whether the host is currently a clusterhead.
	IsCH bool
	// Members is the cluster membership, including the CH, in strictly
	// ascending NID order: a copy of the protocol's own sorted list, which
	// IsMember binary-searches. For the CH it is authoritative; for members
	// it reflects the latest cluster-organization announcement.
	Members []wire.NodeID
	// DCHs lists the deputy clusterheads, highest-ranked first.
	DCHs []wire.NodeID
	// OtherCHs lists foreign clusterheads this host can hear, making it a
	// gateway candidate (sorted). Empty for non-gateways.
	OtherCHs []wire.NodeID
}

// IsMember reports whether id is in the snapshot's membership.
func (v View) IsMember(id wire.NodeID) bool {
	_, ok := slices.BinarySearch(v.Members, id)
	return ok
}

// IsGW reports whether the host is a gateway candidate to at least one
// neighboring cluster.
func (v View) IsGW() bool { return len(v.OtherCHs) > 0 }

// gwSet is one pair's candidate set: a bitset over the protocol's interner
// (ids) and its size.
type gwSet struct {
	in dense.Bitset
	n  int
}

// foreignCH is a foreign clusterhead this host heard directly, last in epoch
// last.
type foreignCH struct {
	ch   wire.NodeID
	last wire.Epoch
}

// findOtherCH returns where ch is or would be in the sorted otherCHs, and
// whether it is there.
func (p *Protocol) findOtherCH(ch wire.NodeID) (int, bool) {
	return slices.BinarySearchFunc(p.otherCHs, ch, func(c foreignCH, ch wire.NodeID) int {
		return cmp.Compare(c.ch, ch)
	})
}

// inWindow reports whether c is a foreign clusterhead heard within the last
// staleAfter epochs.
func (p *Protocol) inWindow(c foreignCH) bool {
	return c.ch != p.myCH && uint64(p.epoch)-uint64(c.last) <= staleAfter
}

// hears reports whether otherCHs holds ch within the window.
func (p *Protocol) hears(ch wire.NodeID) bool {
	i, ok := p.findOtherCH(ch)
	return ok && p.inWindow(p.otherCHs[i])
}

// borderPeer is one member id of the foreign cluster headed by ch, last
// heard in epoch last.
type borderPeer struct {
	ch, id wire.NodeID
	last   wire.Epoch
}

// findBorderPeer returns where (ch, id) is or would be in the sorted
// borderPeers, and whether it is there.
func (p *Protocol) findBorderPeer(ch, id wire.NodeID) (int, bool) {
	return slices.BinarySearchFunc(p.borderPeers, borderPeer{ch: ch, id: id}, func(x, y borderPeer) int {
		if c := cmp.Compare(x.ch, y.ch); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
}

// pairKey identifies an unordered pair of neighboring clusterheads.
type pairKey struct{ lo, hi wire.NodeID }

func pairOf(a, b wire.NodeID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b}
}

// Protocol is the per-host cluster-formation state machine. Create one with
// New and attach it to a host before Boot.
type Protocol struct {
	cfg  Config
	host *node.Host

	epoch wire.Epoch

	// Affiliation state.
	marked bool
	isCH   bool
	myCH   wire.NodeID

	// Cluster composition (authoritative on the CH, advisory on members).
	// members is the membership itself, sorted and duplicate-free (hasMember,
	// addMember, dropMember keep it so): it changes a few times an epoch and
	// is read whole once per snapshot and per announcement, which are
	// therefore a copy, and every loop over it runs in NID order. It is held
	// once: a sorted cache beside a map costs more memory than its sort saves
	// (DESIGN.md §12).
	members []wire.NodeID
	dchs    []wire.NodeID
	gwFlag  map[wire.NodeID]bool // CH: members known to be gateways

	// Foreign clusterheads this host can hear (gateway candidacy), each with
	// the epoch in which it was last heard so stale entries age out, sorted
	// by ch. beginEpoch purges what left the window, so every read is a walk
	// of a few entries that comes out sorted.
	otherCHs []foreignCH

	// borderPeers tracks the members of foreign clusters within earshot
	// (learned from overheard digests), one entry per (foreign CH, member)
	// with the epoch it was last heard, sorted by (ch, id). When no single
	// node hears both clusterheads, a border node and one of these peers
	// together form the paper's fallback "distributed gateway": a two-hop
	// relay path between the clusters. Hearing a known peer again updates
	// its entry in place, and AppendBorderClusters compacts stale entries
	// out, so the slice holds only the peers heard in the last few epochs.
	borderPeers []borderPeer

	// Gateway candidates per neighboring-cluster pair, learned from
	// overheard GWRegister broadcasts. Used for BGW self-ranking and for
	// the CH's primary-gateway choice. A set only grows, and after the first
	// epoch nearly every registration re-adds a candidate it already holds.
	gwCandidates map[pairKey]*gwSet

	// CH bookkeeping: neighbor clusterheads and per-member digest coverage.
	// coverage is an exponentially weighted moving average of digest sizes
	// (how much of the cluster a member hears): smoothing keeps the deputy
	// ranking stable under message loss, so every member agrees on who the
	// deputies are — a deputy that does not know it is one means nobody
	// watches the CH. epochCoverage holds the current epoch's raw
	// observations before they are folded in at the announce slot.
	neighborCHs   map[wire.NodeID]wire.Epoch
	coverage      map[wire.NodeID]float64
	epochCoverage map[wire.NodeID]int

	// Per-epoch transient state. The unmarked-heartbeat set is a dense bitset
	// over interned NIDs plus an insertion-order list for iteration: the
	// former map grew fresh buckets every epoch under churn, and every use of
	// the set (minimum check, member-set inserts) is order-independent, so
	// list order cannot affect behavior. ids also indexes the gwCandidates
	// sets, which outlive the epoch; an index, once assigned, never changes.
	ids            dense.Interner
	heardUnmarked  dense.Bitset
	heardList      []wire.NodeID
	heardMarked    bool // any marked heartbeat heard this epoch
	heardDeclare   bool // a CHDeclare was heard this epoch
	heardAnnounce  bool // any ClusterAnnounce was heard this epoch
	memberChanged  bool
	declareTimer   node.Timer
	pendingDeclare bool
	// deferCount counts consecutive epochs in which this unmarked host
	// deferred declaring because an established cluster was within
	// earshot. Bounded so a host covered only by ordinary members (never
	// heard by a CH) still founds its own overlapping cluster.
	deferCount int

	// Persistent phase callbacks and reusable message values: the epoch
	// schedule re-arms the same func values and re-fills the same message
	// structs every epoch (every transport encodes during Send, so a message
	// value is recyclable as soon as Send returns), which keeps the
	// steady-state epoch free of per-timer closures and per-send heap
	// messages.
	epochFn, hbFn, declareFn, announceFn, registerGWFn, declareFireFn func()
	hbMsg                                                             wire.Heartbeat
	annMsg                                                            wire.ClusterAnnounce
	gwMsg                                                             wire.GWRegister
	gwOthers                                                          []wire.NodeID
	rankScratch                                                       []wire.NodeID
	dchSpare                                                          []wire.NodeID
}

// New returns a formation protocol with the given configuration.
func New(cfg Config) *Protocol {
	if !cfg.Timing.Valid() {
		panic("cluster: invalid timing")
	}
	return &Protocol{
		cfg:           cfg,
		gwFlag:        make(map[wire.NodeID]bool),
		gwCandidates:  make(map[pairKey]*gwSet),
		neighborCHs:   make(map[wire.NodeID]wire.Epoch),
		coverage:      make(map[wire.NodeID]float64),
		epochCoverage: make(map[wire.NodeID]int),
	}
}

// Timing returns the protocol's timing so co-resident protocols can share
// the epoch schedule.
func (p *Protocol) Timing() Timing { return p.cfg.Timing }

// IDs returns the host's one interner, for the co-resident failure detection
// service to key its per-node evidence by. Indices are stable, so both layers
// may keep state by index; neither may assume it assigned them all.
func (p *Protocol) IDs() *dense.Interner { return &p.ids }

// Start implements node.Protocol: it enters the epoch loop at the next
// epoch boundary. A host booted mid-run (replenishment, F4) waits for the
// next heartbeat interval rather than replaying missed epochs.
func (p *Protocol) Start(h *node.Host) {
	p.host = h
	// One closure per callback per lifetime, re-armed every epoch. The
	// epoch-boundary callback derives its epoch from the clock (it fires at
	// exactly EpochStart(e)); the in-epoch phase callbacks read p.epoch,
	// which runEpoch set when their epoch began.
	p.epochFn = func() { p.runEpoch(p.cfg.Timing.EpochOf(p.host.Now())) }
	p.hbFn = func() {
		p.hbMsg = wire.Heartbeat{NID: p.host.ID(), Epoch: p.epoch, Marked: p.marked}
		p.host.Send(&p.hbMsg)
	}
	p.declareFn = func() { p.maybeDeclare(p.epoch) }
	p.announceFn = func() { p.maybeAnnounce(p.epoch) }
	p.registerGWFn = func() { p.maybeRegisterGW(p.epoch) }
	p.declareFireFn = func() {
		if !p.pendingDeclare || p.marked || p.heardDeclare {
			return
		}
		p.becomeCH(p.epoch)
	}
	p.epoch = p.cfg.Timing.FirstEpochAt(h.Now())
	p.scheduleEpoch(p.epoch)
}

func (p *Protocol) scheduleEpoch(e wire.Epoch) {
	at := p.cfg.Timing.EpochStart(e)
	p.host.AfterBatched(at-p.host.Now(), p.epochFn)
}

// runEpoch executes one iteration of the (never-terminating, F4) formation
// algorithm for this host.
func (p *Protocol) runEpoch(e wire.Epoch) {
	p.beginEpoch(e)
	t := p.cfg.Timing

	// Heartbeat diffusion (feature F5): one heartbeat per host per epoch,
	// jittered within the first quarter of the round so concurrent
	// transmissions are not artificially ordered and every heartbeat still
	// lands within Thop. This single diffusion is simultaneously the
	// formation probe, the membership subscription of unadmitted hosts,
	// and round fds.R-1 of the failure detection service, which observes
	// the same messages.
	jitter := sim.Time(p.host.Rand().Int63n(t.JitterSpan()))
	p.host.After(jitter, p.hbFn)

	if !p.marked {
		// Election decision at the end of the probe round.
		p.host.AfterBatched(t.R1End(), p.declareFn)
	}

	// Announce slot: clusterheads refresh the cluster organization when it
	// changed or when unadmitted hosts are knocking.
	p.host.AfterBatched(t.R2End(), p.announceFn)

	// Gateway registration slot.
	p.host.AfterBatched(t.R3End(), p.registerGWFn)

	p.scheduleEpoch(e + 1)
}

// beginEpoch moves the host's state into epoch e: foreign clusterheads that
// left the staleAfter window (or became the host's own) leave otherCHs, and
// the per-epoch formation state resets.
func (p *Protocol) beginEpoch(e wire.Epoch) {
	p.epoch = e
	p.otherCHs = slices.DeleteFunc(p.otherCHs, func(c foreignCH) bool { return !p.inWindow(c) })
	p.heardUnmarked.Clear()
	p.heardList = p.heardList[:0]
	p.heardMarked = false
	p.heardDeclare = false
	p.heardAnnounce = false
	p.pendingDeclare = false
}

// maybeDeclare runs the lowest-ID qualifying policy: an unmarked host that
// heard no unmarked neighbor with a lower NID during the probe round
// declares itself clusterhead, after an RCC-style random backoff that yields
// to any declaration heard in the meantime.
func (p *Protocol) maybeDeclare(e wire.Epoch) {
	if p.marked || p.heardDeclare {
		return
	}
	if (p.heardAnnounce || p.heardMarked) && p.deferCount < 2 {
		// An established cluster is within earshot; prefer admission by
		// membership subscription (F5) over spawning an overlapping
		// cluster. The deferral is bounded: a host that keeps hearing
		// members but is never admitted (it is outside every CH's range)
		// eventually founds its own cluster, as F4's open end intends.
		p.deferCount++
		return
	}
	for _, id := range p.heardList {
		if id < p.host.ID() {
			return // not the lowest unmarked node in the neighborhood
		}
	}
	backoffMax := int64(float64(p.cfg.Timing.Thop) * declareBackoffFrac)
	if backoffMax < 1 {
		backoffMax = 1
	}
	backoff := sim.Time(p.host.Rand().Int63n(backoffMax))
	p.pendingDeclare = true
	p.declareTimer = p.host.After(backoff, p.declareFireFn)
}

// becomeCH turns the host into a clusterhead whose initial membership is
// the set of unmarked neighbors heard this epoch.
func (p *Protocol) becomeCH(e wire.Epoch) {
	p.marked = true
	p.deferCount = 0
	p.isCH = true
	p.myCH = p.host.ID()
	p.members = p.members[:0]
	p.addMember(p.host.ID())
	for _, id := range p.heardList {
		p.addMember(id)
	}
	p.memberChanged = true
	p.host.Send(&wire.CHDeclare{CH: p.host.ID(), Iteration: uint32(e)})
	p.host.Trace(trace.TypeCHElected, "")
}

// maybeAnnounce broadcasts the cluster-organization announcement from a CH.
// The announcement is refreshed every epoch: it admits subscribing hosts,
// carries the deputy ranking re-derived from this epoch's digest coverage
// (a well-covered deputy keeps the gateways within reach after a takeover —
// the concern behind the paper's DCH reachability study), and repairs any
// member's view that lost an earlier announcement to the channel. A deputy
// that never learns its role means nobody watches the CH, so the refresh is
// what makes CH-failure detection robust under sustained loss.
func (p *Protocol) maybeAnnounce(e wire.Epoch) {
	if !p.isCH {
		return
	}
	for _, id := range p.heardList {
		p.addMember(id)
	}
	p.foldCoverage()
	p.rankDCHs()
	p.memberChanged = false
	// The reusable announce message aliases live protocol state (the DCH
	// ranking) and message scratch; both are safe because Send encodes
	// before returning.
	p.annMsg = wire.ClusterAnnounce{
		CH:      p.host.ID(),
		Epoch:   e,
		Members: append(p.annMsg.Members[:0], p.members...),
		DCHs:    p.dchs,
	}
	p.host.Send(&p.annMsg)
	p.host.Trace(trace.TypeClusterFormed, "")
}

// foldCoverage folds the epoch's raw digest sizes into the smoothed
// per-member coverage (EWMA with decay for members whose digest was lost).
func (p *Protocol) foldCoverage() {
	const alpha = 0.3
	for _, id := range p.members {
		if id == p.host.ID() {
			continue
		}
		obs := float64(p.epochCoverage[id])
		p.coverage[id] = (1-alpha)*p.coverage[id] + alpha*obs
	}
	clear(p.epochCoverage)
}

// rankDCHs (re)designates the deputy clusterheads: members ranked by
// smoothed digest coverage (how many cluster members they hear — a proxy
// for centrality, which is what makes a deputy able to stand in for the
// CH), with NID as the deterministic tiebreak. Incumbent deputies keep
// their posts unless a challenger's coverage is decisively better
// (hysteresis), so the ranking — and therefore every member's idea of who
// watches the CH — stays stable under channel noise.
func (p *Protocol) rankDCHs() {
	candidates := p.rankScratch[:0]
	for _, id := range p.members {
		if id != p.host.ID() {
			candidates = append(candidates, id)
		}
	}
	slices.SortFunc(candidates, func(a, b wire.NodeID) int {
		ca, cb := p.coverage[a], p.coverage[b]
		if ca != cb {
			if ca > cb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	p.rankScratch = candidates // keep the grown capacity for the next epoch
	if len(candidates) > maxDCH {
		candidates = candidates[:maxDCH]
	}
	// Hysteresis: surviving incumbents keep their posts; vacancies are
	// filled by the best challengers; at most one decisive replacement per
	// epoch so all members' views stay convergent. The new ranking is built
	// in the spare buffer and ping-ponged with the live one, so re-ranking
	// never reads the buffer it is writing. Seat counts are tiny (maxDCH),
	// so membership tests are linear scans, not a set.
	const challengeFactor = 1.5
	next := p.dchSpare[:0]
	for _, d := range p.dchs {
		if len(next) < maxDCH && p.hasMember(d) && d != p.host.ID() && !slices.Contains(next, d) {
			next = append(next, d)
		}
	}
	for _, c := range candidates {
		if len(next) >= maxDCH {
			break
		}
		if !slices.Contains(next, c) {
			next = append(next, c)
		}
	}
	// The best outsider may displace the weakest seat holder, decisively.
	var challenger wire.NodeID
	for _, c := range candidates {
		if !slices.Contains(next, c) {
			challenger = c
			break
		}
	}
	if challenger != wire.NoNode && len(next) > 0 {
		weakest := 0
		for i := range next {
			if p.coverage[next[i]] < p.coverage[next[weakest]] {
				weakest = i
			}
		}
		if p.coverage[challenger] > challengeFactor*p.coverage[next[weakest]]+1 {
			next[weakest] = challenger
		}
	}
	p.dchSpare = p.dchs
	p.dchs = next
}

// maybeRegisterGW broadcasts a gateway registration when this host hears
// foreign clusterheads (feature F3: the registration names the single
// affiliated cluster).
func (p *Protocol) maybeRegisterGW(e wire.Epoch) {
	if !p.marked || p.isCH {
		return
	}
	p.gwOthers = p.AppendOtherCHs(p.gwOthers[:0])
	if len(p.gwOthers) == 0 {
		return
	}
	p.gwMsg = wire.GWRegister{GW: p.host.ID(), AffiliateCH: p.myCH, OtherCHs: p.gwOthers}
	p.host.Send(&p.gwMsg)
	p.host.Trace(trace.TypeGWElected, "")
	// Register ourselves as a candidate for each pair we bridge.
	for _, oc := range p.gwOthers {
		p.addGWCandidate(pairOf(p.myCH, oc), p.host.ID())
	}
}

// hearForeignCH records that the foreign clusterhead ch was heard directly
// this epoch.
func (p *Protocol) hearForeignCH(ch wire.NodeID) {
	if i, ok := p.findOtherCH(ch); ok {
		p.otherCHs[i].last = p.epoch
	} else {
		p.otherCHs = slices.Insert(p.otherCHs, i, foreignCH{ch: ch, last: p.epoch})
	}
	if p.isCH {
		p.neighborCHs[ch] = p.epoch
	}
}

func (p *Protocol) addGWCandidate(key pairKey, id wire.NodeID) {
	set := p.gwCandidates[key]
	if set == nil {
		set = &gwSet{}
		p.gwCandidates[key] = set
	}
	if i := p.ids.Index(id); !set.in.Get(i) {
		set.in.Set(i)
		set.n++
	}
}

// Handle implements node.Protocol.
func (p *Protocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	switch msg := m.(type) {
	case *wire.Heartbeat:
		p.onHeartbeat(msg)
	case *wire.CHDeclare:
		p.onDeclare(msg)
	case *wire.ClusterAnnounce:
		p.onAnnounce(msg)
	case *wire.GWRegister:
		p.onGWRegister(msg)
	case *wire.Digest:
		p.onDigest(msg)
	case *wire.HealthUpdate:
		p.onHealthUpdate(msg)
	}
}

// onHealthUpdate keeps gateway candidacy fresh: a clusterhead transmits a
// health update every epoch, so hearing a foreign CH's update directly
// proves this host is still within its range (announcements alone would go
// stale, since they are only sent when the organization changes).
func (p *Protocol) onHealthUpdate(m *wire.HealthUpdate) {
	if !p.marked || m.From != m.CH || m.CH == p.myCH {
		return
	}
	p.hearForeignCH(m.CH)
}

func (p *Protocol) onHeartbeat(m *wire.Heartbeat) {
	if m.Epoch != p.epoch {
		return
	}
	if m.Marked {
		p.heardMarked = true
	} else if i := p.ids.Index(m.NID); !p.heardUnmarked.Get(i) {
		p.heardUnmarked.Set(i)
		p.heardList = append(p.heardList, m.NID)
	}
}

func (p *Protocol) onDeclare(m *wire.CHDeclare) {
	p.heardDeclare = true
	if p.pendingDeclare {
		// RCC yield: a concurrent declaration wins; join it instead.
		p.pendingDeclare = false
		p.declareTimer.Cancel()
	}
}

func (p *Protocol) onAnnounce(m *wire.ClusterAnnounce) {
	p.heardAnnounce = true
	listed := false
	for _, id := range m.Members {
		if id == p.host.ID() {
			listed = true
			break
		}
	}
	switch {
	case !p.marked && listed:
		// Admission: first announcement listing us wins (F3 — exactly one
		// affiliation).
		p.marked = true
		p.deferCount = 0
		p.isCH = false
		p.myCH = m.CH
		p.setMembersFromAnnounce(m)
	case p.marked && m.CH == p.myCH:
		p.setMembersFromAnnounce(m)
	case p.marked && m.CH != p.myCH:
		// A foreign clusterhead within earshot: we are a gateway
		// candidate between the two clusters.
		p.hearForeignCH(m.CH)
	}
}

func (p *Protocol) setMembersFromAnnounce(m *wire.ClusterAnnounce) {
	p.members = p.members[:0]
	for _, id := range m.Members {
		p.addMember(id)
	}
	p.addMember(m.CH)
	p.dchs = append(p.dchs[:0], m.DCHs...)
}

func (p *Protocol) onGWRegister(m *wire.GWRegister) {
	// Track candidates for every pair the registrant bridges, so backup
	// gateways can rank themselves without extra coordination messages.
	for _, oc := range m.OtherCHs {
		p.addGWCandidate(pairOf(m.AffiliateCH, oc), m.GW)
	}
	if !p.isCH {
		return
	}
	me := p.host.ID()
	if m.AffiliateCH == me {
		// One of our members serves as a gateway; remember its reach.
		p.gwFlag[m.GW] = true
		for _, oc := range m.OtherCHs {
			p.neighborCHs[oc] = p.epoch
		}
		return
	}
	// The registrant is affiliated elsewhere. If an earlier announcement
	// of ours listed it (simultaneous formation in the overlap), drop it:
	// feature F3 gives each gateway exactly one home cluster.
	for _, oc := range m.OtherCHs {
		if oc == me {
			if p.dropMember(m.GW) {
				p.memberChanged = true
			}
			p.neighborCHs[m.AffiliateCH] = p.epoch
		}
	}
}

func (p *Protocol) onDigest(m *wire.Digest) {
	if m.Epoch != p.epoch {
		return
	}
	// A digest from a foreign cluster identifies a border peer: a member
	// of an adjacent cluster within earshot.
	if p.marked && m.CH != wire.NoNode && m.CH != p.myCH && m.CH != p.host.ID() {
		if i, ok := p.findBorderPeer(m.CH, m.NID); ok {
			p.borderPeers[i].last = p.epoch
		} else {
			p.borderPeers = slices.Insert(p.borderPeers, i, borderPeer{ch: m.CH, id: m.NID, last: p.epoch})
		}
	}
	if p.isCH && p.hasMember(m.NID) {
		if m.CH != wire.NoNode && m.CH != p.host.ID() {
			// The digest names a different home cluster: this host was
			// admitted elsewhere (simultaneous formation in the overlap)
			// and only remains in our list because the gateway
			// registration was lost. Drop it — feature F3 gives every
			// host exactly one affiliation — so it cannot be falsely
			// detected or designated deputy here.
			p.dropMember(m.NID)
			delete(p.coverage, m.NID)
			delete(p.epochCoverage, m.NID)
			p.memberChanged = true
			return
		}
		p.epochCoverage[m.NID] = m.HeardCount()
	}
}

// AppendBorderClusters appends to dst the foreign clusterheads reachable only
// through a border peer (i.e. excluding clusters this host hears directly);
// the appended tail is sorted. Stale entries age out after a few epochs: it
// drops the stale border peers first.
func (p *Protocol) AppendBorderClusters(dst []wire.NodeID) []wire.NodeID {
	p.borderClusters(func(ch wire.NodeID) { dst = append(dst, ch) })
	return dst
}

// HasBorderClusters reports whether AppendBorderClusters would append
// anything, and drops the stale border peers as it does.
func (p *Protocol) HasBorderClusters() bool {
	found := false
	p.borderClusters(func(wire.NodeID) { found = true })
	return found
}

// borderClusters drops the stale border peers and calls each with every
// border cluster, in ascending order.
func (p *Protocol) borderClusters(each func(ch wire.NodeID)) {
	kept := p.borderPeers[:0]
	for _, b := range p.borderPeers {
		if uint64(p.epoch)-uint64(b.last) > staleAfter {
			continue
		}
		kept = append(kept, b)
		if len(kept) > 1 && kept[len(kept)-2].ch == b.ch {
			continue // b's cluster was judged at its first fresh peer
		}
		if b.ch == p.myCH {
			continue
		}
		if p.hears(b.ch) {
			continue // a one-hop gateway path exists; prefer it
		}
		each(b.ch)
	}
	p.borderPeers = kept
}

// IsBorderPeer reports whether id is a known member of the foreign cluster
// headed by ch within this host's earshot.
func (p *Protocol) IsBorderPeer(ch, id wire.NodeID) bool {
	_, ok := p.findBorderPeer(ch, id)
	return ok
}

// BorderPeers returns how many border peers this host holds, stale ones not
// yet dropped by AppendBorderClusters included.
func (p *Protocol) BorderPeers() int { return len(p.borderPeers) }

// GatewayPairs returns how many neighboring-cluster pairs this host holds
// gateway candidates for.
func (p *Protocol) GatewayPairs() int { return len(p.gwCandidates) }

// --- mutators invoked by the failure detection service --------------------

// NoteFailed removes failed hosts from the cluster composition. The FDS
// calls it on the CH when it detects failures and on members with every
// health-status update, whose failure list is cumulative: most of its IDs
// left the composition epochs ago.
func (p *Protocol) NoteFailed(ids []wire.NodeID) {
	for _, id := range ids {
		if p.dropMember(id) && p.isCH {
			p.memberChanged = true
		}
		p.dropDCH(id)
		delete(p.coverage, id)
		delete(p.epochCoverage, id)
		delete(p.gwFlag, id)
	}
}

// Readmit restores a host to the cluster composition after a false
// detection is rescinded (the FDS heard a heartbeat from a host it believed
// failed — impossible under fail-stop unless the detection was false).
func (p *Protocol) Readmit(id wire.NodeID) {
	if p.isCH && p.addMember(id) {
		p.memberChanged = true
	}
}

// Demote reverts the host to the unmarked state so it re-enters cluster
// formation at the next epoch (feature F4 treats it like a newly arrived
// host). The FDS calls it when a member has been orphaned — no health
// update and no clusterhead heartbeat for several consecutive epochs,
// meaning the CH and every deputy are gone.
func (p *Protocol) Demote() {
	p.marked = false
	p.isCH = false
	p.myCH = wire.NoNode
	p.members = p.members[:0]
	p.dchs = p.dchs[:0]
}

// TakeOver promotes this host (a deputy clusterhead) to clusterhead after
// it detected the CH's failure. The FDS calls it at the end of fds.R-3.
func (p *Protocol) TakeOver() {
	old := p.myCH
	p.isCH = true
	p.myCH = p.host.ID()
	p.dropMember(old)
	p.addMember(p.host.ID())
	p.dropDCH(p.host.ID())
	p.memberChanged = true
	p.host.Trace(trace.TypeTakeover, old.String())
}

// NoteNewCH records that leadership moved to newCH (a takeover update was
// received). A clusterhead receiving this for its own cluster has been
// falsely detected; it reasserts by scheduling a fresh announcement, which
// is how the (rare) conflicting-reports scenario of Section 4.2 resolves.
func (p *Protocol) NoteNewCH(oldCH, newCH wire.NodeID) {
	if p.isCH && oldCH == p.host.ID() {
		p.memberChanged = true // reassert at the next announce slot
		return
	}
	if !p.marked || p.myCH != oldCH {
		return
	}
	p.myCH = newCH
	p.dropMember(oldCH)
	p.addMember(newCH)
	p.dropDCH(newCH)
}

// --- queries ----------------------------------------------------------------

// Marked reports whether the host has been admitted to a cluster.
func (p *Protocol) Marked() bool { return p.marked }

// CH returns the host's clusterhead (the host itself for a CH).
func (p *Protocol) CH() wire.NodeID { return p.myCH }

// IsCH reports whether the host is currently a clusterhead.
func (p *Protocol) IsCH() bool { return p.isCH }

// IsMember reports whether the host is admitted and id is in its cluster's
// membership, the CH included.
func (p *Protocol) IsMember(id wire.NodeID) bool { return p.marked && p.hasMember(id) }

// IsDeputy reports whether the host is admitted and one of its cluster's
// deputy clusterheads.
func (p *Protocol) IsDeputy() bool { return p.marked && slices.Contains(p.dchs, p.host.ID()) }

// IsGW reports whether the host is a gateway candidate: admitted, and
// hearing at least one foreign clusterhead within the staleAfter window.
func (p *Protocol) IsGW() bool {
	return p.marked && slices.ContainsFunc(p.otherCHs, p.inWindow)
}

// HearsCH reports whether the admitted host hears the foreign clusterhead ch
// within the staleAfter window.
func (p *Protocol) HearsCH(ch wire.NodeID) bool { return p.marked && p.hears(ch) }

// AppendOtherCHs appends to dst, in ascending order, the foreign clusterheads
// an admitted host heard within the last staleAfter epochs: the clusters it
// is a gateway candidate to.
func (p *Protocol) AppendOtherCHs(dst []wire.NodeID) []wire.NodeID {
	if !p.marked {
		return dst
	}
	for _, c := range p.otherCHs {
		if p.inWindow(c) {
			dst = append(dst, c.ch)
		}
	}
	return dst
}

// View returns a fresh copy of the host's cluster state.
func (p *Protocol) View() View {
	var v View
	p.ViewInto(&v)
	return v
}

// ViewInto copies the host's cluster state into v, reusing v's slices: a
// caller that snapshots every epoch keeps one View and allocates nothing
// once its slices have grown.
func (p *Protocol) ViewInto(v *View) {
	v.Marked, v.CH, v.IsCH = p.marked, p.myCH, p.isCH
	v.Members, v.DCHs, v.OtherCHs = v.Members[:0], v.DCHs[:0], v.OtherCHs[:0]
	if p.marked {
		v.Members = append(v.Members, p.members...)
		v.DCHs = append(v.DCHs, p.dchs...)
		v.OtherCHs = p.AppendOtherCHs(v.OtherCHs)
	}
}

// AppendNeighborCHs appends to dst the clusterheads of neighboring clusters
// known to this CH; only the appended tail is sorted. It appends nothing on a
// non-CH.
func (p *Protocol) AppendNeighborCHs(dst []wire.NodeID) []wire.NodeID {
	if !p.isCH {
		return dst
	}
	const staleAfter = 5
	start := len(dst)
	for ch, last := range p.neighborCHs {
		if uint64(p.epoch)-uint64(last) > staleAfter {
			delete(p.neighborCHs, ch)
			continue
		}
		dst = append(dst, ch)
	}
	slices.Sort(dst[start:])
	return dst
}

// GWRank returns this host's rank among the known gateway candidates
// bridging clusters chA and chB (1 = primary gateway, 2 = first backup, …)
// and the total number of candidates. ok is false when the host is not a
// candidate for that pair.
func (p *Protocol) GWRank(chA, chB wire.NodeID) (rank, n int, ok bool) {
	set := p.gwCandidates[pairOf(chA, chB)]
	if set == nil {
		return 0, 0, false
	}
	me := p.host.ID()
	if i, known := p.ids.Lookup(me); !known || !set.in.Get(i) {
		return 0, set.n, false
	}
	// Rank in the sorted candidate list = 1 + the number of smaller NIDs;
	// counting avoids materializing the sorted list.
	rank = 1
	set.in.ForEach(func(i uint32) {
		if p.ids.NodeID(i) < me {
			rank++
		}
	})
	return rank, set.n, true
}

// AppendGatewayCandidates appends to dst the known gateway candidates
// between chA and chB; the appended tail is sorted by NID (the primary
// gateway first).
func (p *Protocol) AppendGatewayCandidates(dst []wire.NodeID, chA, chB wire.NodeID) []wire.NodeID {
	start := len(dst)
	if set := p.gwCandidates[pairOf(chA, chB)]; set != nil {
		set.in.ForEach(func(i uint32) { dst = append(dst, p.ids.NodeID(i)) })
	}
	slices.Sort(dst[start:])
	return dst
}

// hasMember reports whether id is in the membership.
func (p *Protocol) hasMember(id wire.NodeID) bool {
	_, ok := slices.BinarySearch(p.members, id)
	return ok
}

// addMember inserts id at its place in the sorted membership and reports
// whether it was new. A list arriving in NID order — every announcement a
// clusterhead of this tree sends — is a run of appends.
func (p *Protocol) addMember(id wire.NodeID) bool {
	if n := len(p.members); n == 0 || p.members[n-1] < id {
		p.members = append(p.members, id)
		return true
	}
	i, ok := slices.BinarySearch(p.members, id)
	if !ok {
		p.members = slices.Insert(p.members, i, id)
	}
	return !ok
}

// dropMember removes id from the membership and reports whether it was there.
func (p *Protocol) dropMember(id wire.NodeID) bool {
	i, ok := slices.BinarySearch(p.members, id)
	if ok {
		p.members = slices.Delete(p.members, i, i+1)
	}
	return ok
}

// dropDCH removes id from the deputy ranking.
func (p *Protocol) dropDCH(id wire.NodeID) {
	if i := slices.Index(p.dchs, id); i >= 0 {
		p.dchs = slices.Delete(p.dchs, i, i+1)
	}
}

// --- test/scenario support ---------------------------------------------------

// InstallStaticView force-installs a cluster state, bypassing formation.
// The Monte-Carlo harness uses it to study a single FDS execution on a
// known cluster, exactly as the paper's per-cluster analysis does.
func (p *Protocol) InstallStaticView(ch wire.NodeID, members, dchs []wire.NodeID, self wire.NodeID) {
	p.marked = true
	p.myCH = ch
	p.isCH = ch == self
	p.members = p.members[:0]
	for _, id := range members {
		p.addMember(id)
	}
	p.addMember(ch)
	p.dchs = append([]wire.NodeID(nil), dchs...)
}
