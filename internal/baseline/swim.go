package baseline

import (
	"sort"

	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// SWIM's fixed settings (Das, Gupta, Motivala: ping / indirect-ping / ack
// with piggybacked membership rumors). Only the period comes from Params.
const (
	// swimProbeDivisor sets the probe timeout to Interval/swimProbeDivisor:
	// how long each probe stage (direct ping, then the indirect ping-req)
	// waits for an ack. Both stages fit inside one period.
	swimProbeDivisor = 8
	// swimIndirectProbes is how many proxies a ping-req enlists.
	swimIndirectProbes = 3
	// swimRetransmit is how many outgoing messages each rumor rides on
	// before it is retired (SWIM's lambda*log(n) dissemination budget).
	swimRetransmit = 3
	// swimMaxPiggyback caps the rumors carried per message.
	swimMaxPiggyback = 4
)

// swimAnnounce is one queued rumor with its remaining piggyback budget.
type swimAnnounce struct {
	node   wire.NodeID
	failed bool
	left   int
}

// SWIM is the per-host SWIM-style failure detector. Each period it pings one
// randomly chosen member (the paper's basic random-probe selection, drawn
// from the kernel's seeded stream so runs stay bit-reproducible); a missed
// ack escalates to an indirect probe through swimIndirectProbes proxies, and
// only a miss there declares the target failed. Random selection matters:
// a deterministic cursor over the sorted member list would march in
// lockstep on every host of a dense field — the lists are near-identical —
// so each member would be probed by everyone in the same period and by
// nobody for a full cycle after, stretching worst-case detection to
// len(members) periods.
type SWIM struct {
	p    Params
	host *node.Host

	members   []wire.NodeID // sorted, never includes self
	lastAlive map[wire.NodeID]sim.Time
	failed    map[wire.NodeID]bool
	announce  []swimAnnounce

	seq     uint64
	pending struct {
		target wire.NodeID
		seq    uint64
		acked  bool
	}

	// Steady-state scratch, as in QueryResponse: every transport encodes at
	// Send, so one value per message kind, one rumor buffer and one proxy
	// buffer carry every transmission, the tick is bound once, and probe
	// timeouts are pooled records fired through AfterArg.
	ping     wire.SWIMPing
	pingReq  wire.SWIMPingReq
	ack      wire.SWIMAck
	evs      []wire.SWIMEvent
	via      []wire.NodeID
	tickFn   func()
	timeouts recordPool[swimTimeout]
}

// swimTimeout is one armed probe-stage timeout. It carries the seq of the
// probe it was armed for: when it fires after a later probe has been sent,
// the seq no longer matches s.pending and the timeout is ignored.
type swimTimeout struct {
	s   *SWIM
	seq uint64
}

// fireSWIMDirectFn and fireSWIMIndirectFn are the shared AfterArg
// trampolines for the two probe stages.
func fireSWIMDirectFn(arg any) {
	t := arg.(*swimTimeout)
	s, seq := t.s, t.seq
	s.timeouts.put(t)
	s.directTimeout(seq)
}

func fireSWIMIndirectFn(arg any) {
	t := arg.(*swimTimeout)
	s, seq := t.s, t.seq
	s.timeouts.put(t)
	s.indirectTimeout(seq)
}

// armTimeout schedules fn for probe seq one probe stage from now.
func (s *SWIM) armTimeout(fn sim.ArgHandler, seq uint64) {
	t := s.timeouts.take()
	t.s, t.seq = s, seq
	s.host.AfterArg(s.p.Interval/swimProbeDivisor, fn, t)
}

// sendPing transmits a ping from this host, with rumors attached.
func (s *SWIM) sendPing(target wire.NodeID, seq uint64, onBehalf wire.NodeID) {
	s.ping = wire.SWIMPing{From: s.host.ID(), Target: target, Seq: seq, OnBehalf: onBehalf, Events: s.takeEvents()}
	s.host.Send(&s.ping)
}

// sendAck transmits an ack from this host, with rumors attached.
func (s *SWIM) sendAck(to wire.NodeID, seq uint64, onBehalf wire.NodeID) {
	s.ack = wire.SWIMAck{From: s.host.ID(), To: to, Seq: seq, OnBehalf: onBehalf, Events: s.takeEvents()}
	s.host.Send(&s.ack)
}

func newSWIM(p Params) *SWIM {
	return &SWIM{
		p:         p,
		lastAlive: make(map[wire.NodeID]sim.Time),
		failed:    make(map[wire.NodeID]bool),
	}
}

// Start implements node.Protocol.
func (s *SWIM) Start(h *node.Host) {
	s.host = h
	s.tickFn = s.tick
	s.evs = make([]wire.SWIMEvent, 0, swimMaxPiggyback)
	s.via = make([]wire.NodeID, 0, swimIndirectProbes)
	first := sim.Time(h.Rand().Int63n(int64(s.p.Interval)))
	h.After(first, s.tickFn)
}

func (s *SWIM) tick() {
	s.host.After(s.p.Interval, s.tickFn)
	target, ok := s.pickTarget()
	if !ok {
		// Nobody to probe yet (or everybody we know is already declared
		// failed). Send an unaddressed ping so neighbors can discover us
		// and rumors keep moving.
		s.seq++
		s.sendPing(0, s.seq, 0)
		return
	}
	s.seq++
	s.pending.target = target
	s.pending.seq = s.seq
	s.pending.acked = false
	s.sendPing(target, s.seq, 0)
	s.armTimeout(fireSWIMDirectFn, s.seq)
}

// pickTarget returns a uniformly chosen member that is not already declared
// failed, scanning onward from a random start when the first pick is failed.
func (s *SWIM) pickTarget() (wire.NodeID, bool) {
	n := len(s.members)
	if n == 0 {
		return 0, false
	}
	start := s.host.Rand().Intn(n)
	for i := 0; i < n; i++ {
		t := s.members[(start+i)%n]
		if !s.failed[t] {
			return t, true
		}
	}
	return 0, false
}

func (s *SWIM) directTimeout(seq uint64) {
	if s.pending.seq != seq || s.pending.acked {
		return
	}
	via := s.pickProxies(s.pending.target)
	if len(via) == 0 {
		// No proxy available: the direct miss is all the evidence there is.
		s.markFailed(s.pending.target)
		return
	}
	s.pingReq = wire.SWIMPingReq{
		From: s.host.ID(), Target: s.pending.target, Seq: seq,
		Via: via, Events: s.takeEvents(),
	}
	s.host.Send(&s.pingReq)
	s.armTimeout(fireSWIMIndirectFn, seq)
}

func (s *SWIM) indirectTimeout(seq uint64) {
	if s.pending.seq != seq || s.pending.acked {
		return
	}
	s.markFailed(s.pending.target)
}

// pickProxies returns up to swimIndirectProbes live members other than the
// probe target, scanning from a random start, in the reused via buffer.
func (s *SWIM) pickProxies(target wire.NodeID) []wire.NodeID {
	n := len(s.members)
	if n == 0 {
		return nil
	}
	via := s.via[:0]
	start := s.host.Rand().Intn(n)
	for i := 0; i < n; i++ {
		m := s.members[(start+i)%n]
		if m != target && !s.failed[m] {
			via = append(via, m)
			if len(via) == swimIndirectProbes {
				break
			}
		}
	}
	s.via = via
	return via
}

// Handle implements node.Protocol.
func (s *SWIM) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	now := h.Now()
	switch msg := m.(type) {
	case *wire.SWIMPing:
		s.heard(msg.From, now)
		s.absorbEvents(msg.Events, now)
		if msg.Target == h.ID() {
			s.sendAck(msg.From, msg.Seq, msg.OnBehalf)
		}
	case *wire.SWIMPingReq:
		s.heard(msg.From, now)
		s.absorbEvents(msg.Events, now)
		for _, v := range msg.Via {
			if v == h.ID() {
				// Proxy-probe the target; OnBehalf routes the ack home.
				s.sendPing(msg.Target, msg.Seq, msg.From)
				break
			}
		}
	case *wire.SWIMAck:
		s.heard(msg.From, now)
		s.absorbEvents(msg.Events, now)
		if msg.To != h.ID() {
			return
		}
		if s.pending.seq == msg.Seq && !s.pending.acked &&
			(msg.From == s.pending.target || msg.OnBehalf == s.pending.target) {
			s.pending.acked = true
			return
		}
		if msg.OnBehalf != 0 && msg.OnBehalf != h.ID() {
			// We are the proxy: relay the target's ack to the requester,
			// moving the target's identity into OnBehalf for matching.
			s.sendAck(msg.OnBehalf, msg.Seq, msg.From)
		}
	}
}

// heard records direct liveness evidence: a transmission from id, which also
// discovers id as a member and rescinds any standing failure verdict.
func (s *SWIM) heard(id wire.NodeID, now sim.Time) {
	if id == 0 || id == s.host.ID() {
		return
	}
	s.addMember(id)
	s.lastAlive[id] = now
	if s.pending.target == id {
		s.pending.acked = true
	}
	if s.failed[id] {
		delete(s.failed, id)
		s.enqueue(id, false)
	}
}

// absorbEvents merges piggybacked rumors. A "failed" rumor is ignored when
// this host heard the accused transmit within the last protocol period —
// that direct evidence is fresher than any rumor, and since the radio is
// promiscuous a live accused node refutes the rumor itself within one
// period anyway. An "alive" rumor rescinds a standing verdict. Accepted
// rumors are re-queued with a fresh budget so they keep spreading.
func (s *SWIM) absorbEvents(evs []wire.SWIMEvent, now sim.Time) {
	for _, e := range evs {
		if e.Node == s.host.ID() {
			if e.Failed {
				// Refute the rumor about ourselves.
				s.enqueue(s.host.ID(), false)
			}
			continue
		}
		if e.Failed {
			if s.failed[e.Node] {
				continue
			}
			if t, known := s.lastAlive[e.Node]; known && now-t <= s.p.Interval {
				continue
			}
			s.addMember(e.Node)
			s.failed[e.Node] = true
			s.enqueue(e.Node, true)
		} else if s.failed[e.Node] {
			delete(s.failed, e.Node)
			s.enqueue(e.Node, false)
		}
	}
}

func (s *SWIM) markFailed(id wire.NodeID) {
	if id == 0 || id == s.host.ID() || s.failed[id] {
		return
	}
	s.failed[id] = true
	s.enqueue(id, true)
}

// enqueue adds a rumor with a full piggyback budget, replacing any queued
// rumor about the same node (the newer verdict wins).
func (s *SWIM) enqueue(id wire.NodeID, failedVerdict bool) {
	for i := range s.announce {
		if s.announce[i].node == id {
			s.announce[i].failed = failedVerdict
			s.announce[i].left = swimRetransmit
			return
		}
	}
	s.announce = append(s.announce, swimAnnounce{node: id, failed: failedVerdict, left: swimRetransmit})
}

// takeEvents pops up to swimMaxPiggyback rumors for an outgoing message, in
// the reused evs buffer. Charged rumors with budget left rotate to the back
// of the queue so every rumor gets airtime; exhausted ones retire.
func (s *SWIM) takeEvents() []wire.SWIMEvent {
	n := min(len(s.announce), swimMaxPiggyback)
	var charged [swimMaxPiggyback]swimAnnounce
	copy(charged[:], s.announce[:n])
	evs := s.evs[:0]
	s.announce = append(s.announce[:0], s.announce[n:]...)
	for _, a := range charged[:n] {
		evs = append(evs, wire.SWIMEvent{Node: a.node, Failed: a.failed})
		if a.left--; a.left > 0 {
			s.announce = append(s.announce, a)
		}
	}
	s.evs = evs
	return evs
}

// addMember inserts id into the sorted member list if absent.
func (s *SWIM) addMember(id wire.NodeID) {
	i := sort.Search(len(s.members), func(i int) bool { return s.members[i] >= id })
	if i < len(s.members) && s.members[i] == id {
		return
	}
	s.members = append(s.members, 0)
	copy(s.members[i+1:], s.members[i:])
	s.members[i] = id
}

// IsSuspected implements Detector.
func (s *SWIM) IsSuspected(id wire.NodeID) bool { return s.failed[id] }

// KnownFailed implements Detector.
func (s *SWIM) KnownFailed() []wire.NodeID {
	var out []wire.NodeID
	for id := range s.failed {
		if id != s.host.ID() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KnownPopulation returns how many hosts this detector has discovered,
// including itself.
func (s *SWIM) KnownPopulation() int { return len(s.members) + 1 }
