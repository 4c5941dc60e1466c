// Package dense provides dense indexing for per-node protocol state: an
// Interner that maps sparse wire.NodeIDs onto small stable integers and a
// word-packed Bitset keyed by those integers.
//
// The failure detection service keeps several per-node evidence sets that are
// rebuilt every epoch (heartbeats heard, digests received, nodes listed alive
// in digests). As map[NodeID]bool those sets dominated the epoch hot loop's
// allocation profile: three fresh maps per host per epoch, plus a bucket
// allocation per insertion. Dense indices turn each set into a handful of
// uint64 words cleared in place — zero steady-state allocation — and turn
// per-node lookaside tables (sleep excusals, forward timers) into flat slices.
//
// Indices are stable for the lifetime of the Interner: once a NodeID is
// interned its index never changes, so state keyed by index survives across
// epochs without remapping. A host interns only the IDs it actually hears, so
// its index space — and every bitset and table keyed by it — stays
// proportional to neighborhood size. The NodeID-to-index table does not: it
// is directly indexed, hence as long as the largest NodeID interned, which on
// a field numbered 1..N is O(N) per interner whatever the neighborhood. That
// is why a host owns exactly one (cluster.Protocol's, shared with fds through
// cluster.Protocol.IDs).
package dense

import (
	"math/bits"

	"clusterfds/internal/wire"
)

// smallLimit bounds the direct-index fast path: NodeIDs below it are mapped
// through a flat slice (scenarios number hosts 1..N, so this is the only
// path the experiments exercise); larger IDs fall back to a map so arbitrary
// 32-bit IDs still work. The slice grows to the largest interned ID, so the
// worst case is 4 MB per interner.
const smallLimit = 1 << 20

// Interner assigns dense, stable uint32 indices to wire.NodeIDs.
// The zero value is ready to use.
type Interner struct {
	small []uint32               // NodeID -> index+1 (0 = unassigned)
	big   map[wire.NodeID]uint32 // same, for NodeIDs >= smallLimit
	rev   []wire.NodeID          // index -> NodeID
}

// Index returns the dense index for id, assigning the next free index if id
// has not been seen before. Indices are assigned consecutively from 0.
func (in *Interner) Index(id wire.NodeID) uint32 {
	if id < smallLimit {
		if int(id) < len(in.small) {
			if v := in.small[id]; v != 0 {
				return v - 1
			}
		} else {
			grown := make([]uint32, nextCap(int(id)+1, len(in.small)))
			copy(grown, in.small)
			in.small = grown
		}
		idx := uint32(len(in.rev))
		in.small[id] = idx + 1
		in.rev = append(in.rev, id)
		return idx
	}
	if v, ok := in.big[id]; ok {
		return v - 1
	}
	if in.big == nil {
		in.big = make(map[wire.NodeID]uint32)
	}
	idx := uint32(len(in.rev))
	in.big[id] = idx + 1
	in.rev = append(in.rev, id)
	return idx
}

// Lookup returns the dense index for id without assigning one.
func (in *Interner) Lookup(id wire.NodeID) (uint32, bool) {
	if id < smallLimit {
		if int(id) < len(in.small) {
			if v := in.small[id]; v != 0 {
				return v - 1, true
			}
		}
		return 0, false
	}
	v, ok := in.big[id]
	if !ok {
		return 0, false
	}
	return v - 1, true
}

// NodeID returns the NodeID interned at index i. It panics if i was never
// assigned, mirroring slice indexing semantics.
func (in *Interner) NodeID(i uint32) wire.NodeID { return in.rev[i] }

// Len returns how many NodeIDs have been interned. Valid indices are
// exactly [0, Len).
func (in *Interner) Len() int { return len(in.rev) }

// nextCap grows geometrically toward need so repeated small-ID growth does
// not reallocate per node during the boot storm.
func nextCap(need, cur int) int {
	c := cur * 2
	if c < 16 {
		c = 16
	}
	if c < need {
		c = need
	}
	return c
}

// Bitset is a word-packed set of dense indices. The zero value is an empty
// set ready to use. It grows on Set and never shrinks; Clear zeroes the
// words in place, so steady-state epochs allocate nothing.
type Bitset struct {
	words []uint64
}

// Set adds index i to the set, growing the word slice if needed.
func (b *Bitset) Set(i uint32) {
	w := int(i >> 6)
	if w >= len(b.words) {
		grown := make([]uint64, nextCap(w+1, len(b.words)))
		copy(grown, b.words)
		b.words = grown
	}
	b.words[w] |= 1 << (i & 63)
}

// Get reports whether index i is in the set. Out-of-range indices are
// simply absent — no growth, no panic.
func (b *Bitset) Get(i uint32) bool {
	w := int(i >> 6)
	return w < len(b.words) && b.words[w]&(1<<(i&63)) != 0
}

// Unset removes index i from the set if present.
func (b *Bitset) Unset(i uint32) {
	if w := int(i >> 6); w < len(b.words) {
		b.words[w] &^= 1 << (i & 63)
	}
}

// Clear empties the set in place, retaining capacity.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of indices in the set.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every index in the set, in ascending index order.
// fn must not mutate the set.
func (b *Bitset) ForEach(fn func(uint32)) {
	for wi, w := range b.words {
		base := uint32(wi) << 6
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
