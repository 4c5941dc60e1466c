package shard

import "clusterfds/internal/sim"

// ev is one scheduled occurrence in a shard's queue. Unlike the pointer-based
// pooled events of sim.Kernel, ev is a plain value copied between the queue's
// tiers: at a million hosts tens of millions of deliveries are in flight, and
// value events cost one 32-byte slot — two to a cache line — with zero
// per-event allocation or pointer chasing.
//
// Ordering is by the globally stable key (at, owner, seq) — owner is the
// scheduling host's NodeID (0 for shard-control events) and seq its private
// send counter. The key is assigned where the event is CREATED, from state
// owned by one host, so it is identical at every shard and worker count;
// kernel-local tie-break counters (what sim.Kernel uses) would not be.
type ev struct {
	at    sim.Time
	owner uint32 // NodeID of the scheduling host; 0 = shard-control
	seq   uint32 // owner's private event counter (shard-local for control)
	aux   uint32 // receiver idx (deliveries), victim idx (crash), epoch (epoch tick)
	off   uint32 // payload span into the shard's victim-slot arena: off, n
	bytes uint32 // wire size, for rx energy/byte accounting at delivery
	n     uint16 // at most len(Config.Crashes) victim slots, which Build bounds
	kind  uint8
}

// Event kinds. ek* fire on the owning host (sends and control), d* are
// per-receiver deliveries.
const (
	ekEpoch  uint8 = iota // control: per-shard epoch tick; aux = epoch
	ekCrash               // control: fail-stop a host; aux = host idx
	ekHB                  // host broadcasts its round-1 heartbeat
	ekDigest              // host broadcasts its round-2 digest
	ekHealth              // CH runs detection + broadcasts the health update
	ekCheck               // deputy CH takeover check at R3End+Thop
	ekRelay               // host relays a failure report (epidemic hop)
	dHB                   // deliveries of the above
	dDigest
	dHealth
	dReport
)

// less orders events by the stable key (at, owner, seq).
func (e *ev) less(o *ev) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.owner != o.owner {
		return e.owner < o.owner
	}
	return e.seq < o.seq
}

// evHeap is a 4-ary min-heap of value events, the same shape sim.Kernel
// uses. It is exact for any times but sifts 32-byte values, so evQueue keeps
// it for the two small sets a time bucket cannot hold — near and far — and
// sorts the bulk, the deliveries, a bucket at a time. Hand-rolled rather
// than container/heap to avoid interface boxing on every push/pop.
type evHeap struct {
	a []ev
}

func (h *evHeap) len() int { return len(h.a) }

func (h *evHeap) push(e ev) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h.a[i].less(&h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *evHeap) pop() ev {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		m := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h.a[c].less(&h.a[m]) {
				m = c
			}
		}
		if !h.a[m].less(&h.a[i]) {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}
