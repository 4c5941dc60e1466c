package baseline

import (
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// floodWindow is how many sequence numbers below the highest-seen one the
// per-origin reorder window tracks. Relays arrive within a TTL-bounded number
// of hop delays of the original send, far less than 64 heartbeat intervals,
// so anything older is a duplicate or irrelevant and is dropped.
const floodWindow = 64

// floodOrigin is the bounded per-origin state that replaces the old
// per-(origin, seq) dedup map, which retained one entry per heartbeat ever
// heard and grew without bound over a run. maxSeq is the highest sequence
// delivered; recent is a floodWindow-wide bitmask of sequences at or below it
// (bit i set means seq maxSeq-i was seen); last is when maxSeq was delivered.
type floodOrigin struct {
	maxSeq uint64
	recent uint64
	last   sim.Time
}

// Flood is the per-host flat-flooding failure detector protocol. Every
// heartbeat from every node is relayed once by every other node (up to the
// TTL), which is exactly the O(population) per-message cost the paper's
// two-tier architecture avoids.
type Flood struct {
	silence[*floodOrigin] // per-origin records

	seq uint64

	// Steady-state scratch, as in QueryResponse: every transport encodes at
	// Send, so one heartbeat value carries every transmission, the tick is
	// bound once, and jittered relays are pooled records fired through
	// AfterArg.
	hb     wire.FloodHeartbeat
	tickFn func()
	relays recordPool[floodRelay]
}

// floodRelay is one jittered relay waiting for its send.
type floodRelay struct {
	f      *Flood
	h      *node.Host
	origin wire.NodeID
	seq    uint64
	ttl    uint8
}

// fireFloodRelayFn is the shared AfterArg trampoline for jittered relays.
func fireFloodRelayFn(arg any) {
	r := arg.(*floodRelay)
	f := r.f
	f.send(r.h, r.origin, r.seq, r.ttl)
	f.relays.put(r)
}

func newFlood(p Params) *Flood {
	return &Flood{silence: newSilence(p, func(o *floodOrigin) sim.Time { return o.last })}
}

// Start implements node.Protocol.
func (f *Flood) Start(h *node.Host) {
	f.host = h
	f.tickFn = f.tick
	first := sim.Time(h.Rand().Int63n(int64(f.p.Interval)))
	h.After(first, f.tickFn)
}

func (f *Flood) tick() {
	f.seq++
	f.send(f.host, f.host.ID(), f.seq, f.p.TTL)
	f.host.After(f.p.Interval, f.tickFn)
}

// send transmits one heartbeat of origin from h, its originator or a relay.
func (f *Flood) send(h *node.Host, origin wire.NodeID, seq uint64, ttl uint8) {
	f.hb = wire.FloodHeartbeat{Origin: origin, Seq: seq, TTL: ttl, Relay: h.ID()}
	h.Send(&f.hb)
}

// Handle implements node.Protocol: record liveness and relay unseen
// heartbeats while TTL remains. Only a strictly newer sequence advances the
// origin's liveness clock — a late relay of an old heartbeat is still
// deduplicated and forwarded for coverage, but must not mask a crash by
// refreshing lastSeen with pre-crash evidence.
func (f *Flood) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	hb, ok := m.(*wire.FloodHeartbeat)
	if !ok || hb.Origin == h.ID() {
		// Our own heartbeat echoed back by a neighbor: we are not evidence
		// of our own liveness, and re-relaying it would double the flood.
		return
	}
	o, known := f.heard[hb.Origin]
	switch {
	case !known:
		f.heard[hb.Origin] = &floodOrigin{maxSeq: hb.Seq, recent: 1, last: h.Now()}
	case hb.Seq > o.maxSeq:
		if shift := hb.Seq - o.maxSeq; shift >= floodWindow {
			o.recent = 1
		} else {
			o.recent = o.recent<<shift | 1
		}
		o.maxSeq = hb.Seq
		o.last = h.Now()
	default:
		back := o.maxSeq - hb.Seq
		if back >= floodWindow {
			return // far older than anything in flight; drop
		}
		if o.recent&(1<<back) != 0 {
			return // duplicate
		}
		o.recent |= 1 << back // stale but unseen: relay, no liveness credit
	}
	if hb.TTL <= 1 {
		return
	}
	// Copy the fields out: the message is the transport's decode scratch and
	// must not outlive Handle.
	if f.p.RelayJitter > 0 {
		r := f.relays.take()
		r.f, r.h, r.origin, r.seq, r.ttl = f, h, hb.Origin, hb.Seq, hb.TTL-1
		h.AfterArg(sim.Time(h.Rand().Int63n(int64(f.p.RelayJitter))), fireFloodRelayFn, r)
		return
	}
	f.send(h, hb.Origin, hb.Seq, hb.TTL-1)
}

// dedupStateSize reports the number of per-origin dedup records — the
// regression surface for the unbounded (origin, seq) map this replaced. It
// is O(population) by construction now; the test pins that.
func (f *Flood) dedupStateSize() int { return len(f.heard) }
