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
// epochs without remapping. A host interns only the IDs it actually hears, and
// the NodeID-to-index table is sized to those IDs too, so an Interner — and
// every bitset and table keyed by its indices — stays proportional to the
// neighborhood, whatever the NodeIDs' range.
package dense

import (
	"math/bits"

	"clusterfds/internal/wire"
)

// fib32 is 2³²/φ, the multiplier of Fibonacci hashing: the top bits of
// id·fib32 spread consecutive and strided IDs alike across a table.
const fib32 = 0x9E3779B9

// minSlots is the size of an Interner's first table and first overflow table.
const minSlots = 16

// Interner assigns dense, stable uint32 indices to wire.NodeIDs.
// The zero value is ready to use.
//
// The NodeID-to-index table has two parts, both power-of-two arrays rebuilt
// from rev when the Interner outgrows them:
//
//   - slots is direct-mapped by the ID's low bits and kept at most 3/4 full.
//     A slot packs the ID's remaining high bits above index+1, which fits
//     below them because index+1 < len(slots); 0 is empty. Slot position and
//     stored high bits make up the whole ID, so a hit costs one load and one
//     compare — as cheap as a table indexed by NodeID, at a size set by the
//     IDs heard rather than by the largest ID.
//   - over holds the IDs whose slot an earlier ID took: index+1, probed
//     linearly from the top bits of the ID's Fibonacci hash, kept at most 3/4
//     full. It stores no key; a probe compares rev[v-1] with the ID.
//
// An ID is in over only if its slot is taken, and slots never empty, so an
// empty slot proves the ID was never interned. slots and rev share one
// allocation, rev's capacity being the 3/4 of len(slots) it may fill.
type Interner struct {
	slots []uint32 // high bits of the ID | index+1 (0 = empty)
	rev   []uint32 // index -> NodeID
	over  []uint32 // index+1 of an ID whose slot was taken (0 = empty)
	nover int      // IDs in over
	shift uint32   // 32 − log2(len(over)): the hash's top bits pick a slot
}

// find returns id's index+1, or 0 if id is not interned.
func (in *Interner) find(id uint32) uint32 {
	if len(in.slots) == 0 {
		return 0
	}
	mask := uint32(len(in.slots) - 1)
	e := in.slots[id&mask]
	if e == 0 {
		return 0
	}
	if e^id <= mask { // the high bits match
		return e & mask
	}
	if len(in.over) == 0 {
		return 0
	}
	mask = uint32(len(in.over) - 1)
	for s := id * fib32 >> in.shift; ; s = (s + 1) & mask {
		if v := in.over[s]; v == 0 || in.rev[v-1] == id {
			return v
		}
	}
}

// Index returns the dense index for id, assigning the next free index if id
// has not been seen before. Indices are assigned consecutively from 0.
func (in *Interner) Index(id wire.NodeID) uint32 {
	if v := in.find(uint32(id)); v != 0 {
		return v - 1
	}
	idx := uint32(len(in.rev))
	if 4*(len(in.rev)+1) > 3*len(in.slots) {
		in.grow()
	}
	in.rev = append(in.rev, uint32(id))
	if !in.claim(uint32(id), idx) {
		if in.nover++; 4*in.nover > 3*len(in.over) {
			in.spill()
		} else {
			in.placeOver(uint32(id), idx)
		}
	}
	return idx
}

// grow doubles the table (or makes the first one) and places every interned
// ID again, in index order.
func (in *Interner) grow() {
	n := max(2*len(in.slots), minSlots)
	buf := make([]uint32, n+3*n/4)
	in.slots, in.rev = buf[:n:n], append(buf[n:n], in.rev...)
	in.nover = 0
	for i, id := range in.rev {
		if !in.claim(id, uint32(i)) {
			in.nover++
		}
	}
	if in.nover > 0 || len(in.over) > 0 {
		in.spill()
	}
}

// claim stores id's index in its slot and reports whether the slot was free.
func (in *Interner) claim(id, idx uint32) bool {
	mask := uint32(len(in.slots) - 1)
	if in.slots[id&mask] != 0 {
		return false
	}
	in.slots[id&mask] = id&^mask | (idx + 1)
	return true
}

// spill refills over with every interned ID that does not hold its slot,
// first quadrupling over (or making the first one) until nover IDs fill at
// most 3/4 of it. An over that is large enough is cleared and kept: a grow
// halves the load on slots, so fewer IDs spill than before. Quadrupling
// rather than doubling remakes over less often while hosts are still learning
// IDs; the allocs gate of BenchmarkFDSEpoch10k holds it there.
func (in *Interner) spill() {
	n := max(len(in.over), minSlots)
	for 4*in.nover > 3*n {
		n *= 4
	}
	if n == len(in.over) {
		clear(in.over)
	} else {
		in.over = make([]uint32, n)
		in.shift = uint32(32 - bits.TrailingZeros(uint(n)))
	}
	mask := uint32(len(in.slots) - 1)
	for i, id := range in.rev {
		if in.slots[id&mask]&mask != uint32(i)+1 {
			in.placeOver(id, uint32(i))
		}
	}
}

// placeOver stores idx+1 in the first empty slot of id's probe run in over.
func (in *Interner) placeOver(id, idx uint32) {
	mask := uint32(len(in.over) - 1)
	s := id * fib32 >> in.shift
	for in.over[s] != 0 {
		s = (s + 1) & mask
	}
	in.over[s] = idx + 1
}

// Lookup returns the dense index for id without assigning one.
func (in *Interner) Lookup(id wire.NodeID) (uint32, bool) {
	if v := in.find(uint32(id)); v != 0 {
		return v - 1, true
	}
	return 0, false
}

// NodeID returns the NodeID interned at index i. It panics if i was never
// assigned, mirroring slice indexing semantics.
func (in *Interner) NodeID(i uint32) wire.NodeID { return wire.NodeID(in.rev[i]) }

// Len returns how many NodeIDs have been interned. Valid indices are
// exactly [0, Len).
func (in *Interner) Len() int { return len(in.rev) }

// nextCap grows geometrically toward need so repeated growth does not
// reallocate per index during the boot storm.
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
