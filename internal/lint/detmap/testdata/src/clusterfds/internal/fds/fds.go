// Package fds is a detmap fixture standing in for a deterministic protocol
// package: order-sensitive map ranges must fire, order-insensitive and
// sort-before-use patterns must not.
package fds

import "sort"

type NodeID uint32

type bitset struct{ bits []uint64 }

func (b *bitset) Set(i uint32)      { b.bits[i/64] |= 1 << (i % 64) }
func (b *bitset) Remove(i uint32)   { b.bits[i/64] &^= 1 << (i % 64) }
func (b *bitset) Mix(i, j uint32)   {}
func (b *bitset) Observe(v float64) {}

type proto struct {
	members map[NodeID]bool
	seen    map[NodeID]int
	order   []NodeID
	last    NodeID
	total   int
	ids     bitset
}

// badLastWins leaks iteration order into state that outlives the loop.
func (p *proto) badLastWins() {
	for id := range p.members {
		p.last = id // want `loop-dependent value assigned to p\.last`
	}
}

// badEmit calls an effectful function per iteration in map order.
func (p *proto) badEmit(emit func(NodeID)) {
	for id := range p.members {
		emit(id) // want `call whose effect the analyzer cannot prove order-insensitive`
	}
}

// badHiddenCall: a call in expression position is as effectful as the same
// call standing alone — discarding or binding its result hides nothing.
func (p *proto) badHiddenCall(deploy func(NodeID) int) {
	for id := range p.members {
		_ = deploy(id)      // want `call whose effect the analyzer cannot prove order-insensitive`
		x := deploy(id)     // want `call whose effect the analyzer cannot prove order-insensitive`
		if x > deploy(id) { // want `call whose effect the analyzer cannot prove order-insensitive`
			continue
		}
	}
}

// badObserve: a histogram's Observe folds a float sum, so in map order the
// sum's low bits depend on the iteration order (scenario.scheduleMonitor's
// line before it walked the crash schedule instead).
func (p *proto) badObserve(at map[NodeID]float64) {
	for _, t := range at {
		p.ids.Observe(t) // want `call whose effect the analyzer cannot prove order-insensitive`
	}
}

// badDraw consumes a random stream in map order: a call in expression
// position is checked like a statement call.
func (p *proto) badDraw(rng interface{ Intn(int) int }) int {
	n := 0
	for range p.members {
		n += rng.Intn(2) // want `call whose effect the analyzer cannot prove order-insensitive`
	}
	return n
}

// badFloatSum: FP addition is not associative.
func (p *proto) badFloatSum(w map[NodeID]float64) float64 {
	var sum float64
	for _, v := range w {
		sum += v // want `non-integer`
	}
	return sum
}

// badUnsorted collects keys but never sorts them.
func (p *proto) badUnsorted() []NodeID {
	var out []NodeID
	for id := range p.members {
		out = append(out, id) // want `never sorted in this block`
	}
	return out
}

// badEarlyValue returns an iteration-dependent value from a predicate that
// several keys can satisfy.
func (p *proto) badEarlyValue(min NodeID) NodeID {
	for id := range p.members {
		if id > min {
			return id // want `early exit returns an iteration-dependent value`
		}
	}
	return 0
}

// badCondition branches on state the loop itself accumulates.
func (p *proto) badCondition() int {
	n := 0
	for range p.members {
		n++
		if n > 3 { // want `branch condition reads loop-carried state`
			break // want `early exit from a loop that also accumulates state`
		}
	}
	return n
}

// goodCount: commutative integer accumulation.
func (p *proto) goodCount() int {
	n := 0
	for _, v := range p.seen {
		n += v
		n++
	}
	return n
}

// goodSetOps: writes into maps/bitsets keyed by the iteration key.
func (p *proto) goodSetOps(dst map[NodeID]int) {
	for id, v := range p.seen {
		dst[id] = v + 1
		dst[id] = dst[id] + 1 // reading the element being written is fine
		p.ids.Set(uint32(id))
		delete(p.members, id)
	}
}

// goodSorted collects keys and sorts before use.
func (p *proto) goodSorted() []NodeID {
	keys := make([]NodeID, 0, len(p.members))
	for id := range p.members {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// goodExistence: single key-equality early exit with no other effects.
func (p *proto) goodExistence(want NodeID) bool {
	for id := range p.members {
		if id == want {
			return true
		}
	}
	return false
}

// goodConstExit: single exit returning constants under any pure predicate.
func (p *proto) goodConstExit(min NodeID) bool {
	for id := range p.members {
		if id > min {
			return true
		}
	}
	return false
}

// goodFlag: the same constant from every site — idempotent.
func (p *proto) goodFlag(min NodeID) bool {
	any := false
	for id := range p.members {
		if id > min {
			any = true
		}
	}
	return any
}

// goodMinMax: commutative min/max reduction.
func (p *proto) goodMinMax() NodeID {
	var lo NodeID
	for id := range p.members {
		lo = min(lo, id)
	}
	return lo
}

// goodQueryCalls: conversions, builtins and the named read-only accessors
// may appear in conditions and arguments.
func (p *proto) goodQueryCalls(self interface{ ID() NodeID }) []NodeID {
	var out []NodeID
	for id, on := range p.members {
		if id != self.ID() && uint32(id) < uint32(len(p.order)) && on {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// badSelfInsert grows the map being ranged: the spec leaves it unspecified
// whether the new entries are visited.
func (p *proto) badSelfInsert() {
	for id := range p.members {
		p.members[id+1] = true // want `insert into the map being ranged`
	}
}

// badCollide writes an iteration-dependent value under a key that does not
// mention the range key: two iterations can race into the same slot.
func (p *proto) badCollide(dst map[NodeID]NodeID) {
	for id := range p.members {
		dst[0] = id // want `map write to a possibly colliding key with an iteration-dependent value`
	}
}

// goodSelectorBase: the written map may be reached through a selector, not
// just a bare identifier.
func (p *proto) goodSelectorBase(other *proto) {
	for id := range p.members {
		other.seen[id] = 1
	}
}

// goodCommaOK: comma-ok reads from pure sources define pure body-locals.
func (p *proto) goodCommaOK(dst map[NodeID]int, boxed map[NodeID]any) int {
	n := 0
	for id := range p.members {
		if _, ok := dst[id]; ok {
			continue
		}
		v, ok := boxed[id]
		if !ok {
			continue
		}
		if _, isNode := v.(NodeID); isNode {
			n++
		}
	}
	return n
}
