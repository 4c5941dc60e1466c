package baseline

import (
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// allPairsPeer is the per-origin liveness record.
type allPairsPeer struct {
	maxSeq uint64
	last   sim.Time
}

// AllPairs is the naive all-pairs heartbeat detector: every node broadcasts
// a heartbeat each period and monitors every origin it has ever heard.
// Nothing is relayed, so coverage is limited to the one-hop radio
// neighborhood; within a dense field it is the flat design whose O(n^2)
// monitoring relationships the paper's Section 3 argues against.
type AllPairs struct {
	silence[allPairsPeer] // per-origin records

	seq uint64

	// Steady-state scratch, as in QueryResponse: one heartbeat value
	// carries every transmission and the tick is bound once.
	hb     wire.AllPairsHeartbeat
	tickFn func()
}

func newAllPairs(p Params) *AllPairs {
	return &AllPairs{silence: newSilence(p, func(r allPairsPeer) sim.Time { return r.last })}
}

// Start implements node.Protocol.
func (a *AllPairs) Start(h *node.Host) {
	a.host = h
	a.tickFn = a.tick
	first := sim.Time(h.Rand().Int63n(int64(a.p.Interval)))
	h.After(first, a.tickFn)
}

func (a *AllPairs) tick() {
	a.seq++
	a.hb.Origin, a.hb.Seq = a.host.ID(), a.seq
	a.host.Send(&a.hb)
	a.host.After(a.p.Interval, a.tickFn)
}

// Handle implements node.Protocol: only a strictly newer sequence advances an
// origin's liveness clock.
func (a *AllPairs) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	hb, ok := m.(*wire.AllPairsHeartbeat)
	if !ok || hb.Origin == h.ID() {
		return
	}
	p, known := a.heard[hb.Origin]
	if !known || hb.Seq > p.maxSeq {
		a.heard[hb.Origin] = allPairsPeer{maxSeq: hb.Seq, last: h.Now()}
	}
}
