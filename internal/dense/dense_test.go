package dense

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"clusterfds/internal/wire"
)

func TestInternerAssignsStableConsecutiveIndices(t *testing.T) {
	var in Interner
	ids := []wire.NodeID{7, 3, 7, 100, 3, 1}
	want := []uint32{0, 1, 0, 2, 1, 3}
	for k, id := range ids {
		if got := in.Index(id); got != want[k] {
			t.Fatalf("Index(%d) call %d = %d, want %d", id, k, got, want[k])
		}
	}
	if in.Len() != 4 {
		t.Fatalf("Len = %d, want 4", in.Len())
	}
	for _, id := range []wire.NodeID{7, 3, 100, 1} {
		i, ok := in.Lookup(id)
		if !ok || in.NodeID(i) != id {
			t.Fatalf("round trip failed for %d: (%d, %v)", id, i, ok)
		}
	}
	if _, ok := in.Lookup(42); ok {
		t.Fatal("Lookup invented an index for an unseen ID")
	}
}

// TestInternerLargeIDs pins that IDs at the top of the 32-bit range take the
// same path as small ones: consecutive indices in first-Index order, stable
// and reversible.
func TestInternerLargeIDs(t *testing.T) {
	var in Interner
	ids := []wire.NodeID{1 << 20, 5, math.MaxUint32, 0, math.MaxUint32 - 1}
	for k, id := range ids {
		if got := in.Index(id); got != uint32(k) {
			t.Fatalf("Index(%d) = %d, want %d", id, got, k)
		}
	}
	for k, id := range ids {
		if got := in.Index(id); got != uint32(k) {
			t.Fatalf("ID %d not stable: %d then %d", id, k, got)
		}
		if j, ok := in.Lookup(id); !ok || j != uint32(k) || in.NodeID(j) != id {
			t.Fatalf("ID %d round trip failed: (%d, %v)", id, j, ok)
		}
	}
}

// TestInternerMatchesMapModel drives the interner and a map[NodeID]uint32
// reference with the same seeded ID streams — consecutive IDs, strides of
// 2¹⁶ and 2²⁰ (which collide under a low-bits hash), IDs above 2²⁰, IDs near
// MaxUint32 and a mix — each interleaving repeats and Lookup misses with new
// IDs. Index must assign what the model assigns (consecutively, in first-Index
// order), a Lookup miss must assign nothing, and NodeID and Len must agree.
func TestInternerMatchesMapModel(t *testing.T) {
	streams := []struct {
		name string
		next func(rng *rand.Rand, k int) wire.NodeID
	}{
		{"consecutive", func(_ *rand.Rand, k int) wire.NodeID { return wire.NodeID(k + 1) }},
		{"stride2^16", func(_ *rand.Rand, k int) wire.NodeID { return wire.NodeID(k << 16) }},
		{"stride2^20", func(_ *rand.Rand, k int) wire.NodeID { return wire.NodeID(k << 20) }},
		{"above2^20", func(rng *rand.Rand, _ int) wire.NodeID {
			return wire.NodeID(1<<20 + rng.Uint32()%(math.MaxUint32-1<<20))
		}},
		{"nearMax", func(rng *rand.Rand, _ int) wire.NodeID {
			return wire.NodeID(math.MaxUint32 - rng.Uint32()%8192)
		}},
		{"mixed", func(rng *rand.Rand, _ int) wire.NodeID { return wire.NodeID(rng.Uint32()) }},
	}
	for seed, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			var in Interner
			model := map[wire.NodeID]uint32{}
			var order []wire.NodeID
			fresh := 0
			for op := 0; op < 20000; op++ {
				var id wire.NodeID
				switch r := rng.Intn(4); {
				case r == 0 && len(order) > 0: // repeat a known ID
					id = order[rng.Intn(len(order))]
				case r == 1: // probe an ID that may never be interned
					id = st.next(rng, fresh+rng.Intn(4096)+1)
					want, known := model[id]
					got, ok := in.Lookup(id)
					if ok != known || (ok && got != want) {
						t.Fatalf("op %d: Lookup(%d) = (%d, %v), model (%d, %v)", op, id, got, ok, want, known)
					}
					if in.Len() != len(model) {
						t.Fatalf("op %d: Lookup(%d) changed Len to %d, model %d", op, id, in.Len(), len(model))
					}
					continue
				default:
					id = st.next(rng, fresh)
					fresh++
				}
				want, known := model[id]
				if !known {
					want = uint32(len(model))
					model[id] = want
					order = append(order, id)
				}
				if got := in.Index(id); got != want {
					t.Fatalf("op %d: Index(%d) = %d, model %d", op, id, got, want)
				}
				if op%512 == 0 {
					checkTables(t, &in)
				}
			}
			if in.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", in.Len(), len(model))
			}
			checkTables(t, &in)
			for i, id := range order {
				if in.NodeID(uint32(i)) != id {
					t.Fatalf("NodeID(%d) = %d, want %d", i, in.NodeID(uint32(i)), id)
				}
				if got, ok := in.Lookup(id); !ok || got != uint32(i) {
					t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", id, got, ok, i)
				}
			}
		})
	}
}

// checkTables asserts the Interner's table invariants: each part is at most
// 3/4 full, every interned ID is in its slot or in over and nowhere else, and
// over holds nothing else.
func checkTables(t *testing.T, in *Interner) {
	t.Helper()
	if 4*in.Len() > 3*len(in.slots) || 4*in.nover > 3*len(in.over) {
		t.Fatalf("%d IDs in %d slots, %d in over of %d: over 3/4 full", in.Len(), len(in.slots), in.nover, len(in.over))
	}
	inSlots, inOver := 0, 0
	for _, e := range in.slots {
		if e != 0 {
			inSlots++
		}
	}
	for _, v := range in.over {
		if v != 0 {
			inOver++
		}
	}
	if inSlots+in.nover != in.Len() || inOver != in.nover {
		t.Fatalf("%d IDs: %d in slots, %d in over, nover %d", in.Len(), inSlots, inOver, in.nover)
	}
}

// TestInternerGrowEmptiesOverflow pins that a grow which gives every ID its
// own slot leaves nothing behind in over: IDs 0 and 16 share a slot of the
// first, 16-slot table and part at 32 slots.
func TestInternerGrowEmptiesOverflow(t *testing.T) {
	var in Interner
	ids := []wire.NodeID{0, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, id := range ids {
		in.Index(id)
	}
	if len(in.slots) != minSlots || in.nover != 1 {
		t.Fatalf("before the grow: %d slots, %d in over; want %d, 1", len(in.slots), in.nover, minSlots)
	}
	checkTables(t, &in)
	for id := wire.NodeID(11); id < 15; id++ {
		in.Index(id)
	}
	if len(in.slots) != 2*minSlots || in.nover != 0 {
		t.Fatalf("after the grow: %d slots, %d in over; want %d, 0", len(in.slots), in.nover, 2*minSlots)
	}
	checkTables(t, &in)
	for k, id := range append(ids, 11, 12, 13, 14) {
		if i, ok := in.Lookup(id); !ok || i != uint32(k) {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", id, i, ok, k)
		}
	}
	if _, ok := in.Lookup(32); ok {
		t.Fatal("Lookup invented an index for an ID sharing 0's slot")
	}
}

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if b.Get(0) || b.Get(1000) || b.Count() != 0 {
		t.Fatal("zero-value bitset not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(300)
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for _, i := range []uint32{0, 63, 64, 300} {
		if !b.Get(i) {
			t.Fatalf("Get(%d) = false after Set", i)
		}
	}
	if b.Get(1) || b.Get(299) || b.Get(100000) {
		t.Fatal("spurious membership")
	}
	var got []uint32
	b.ForEach(func(i uint32) { got = append(got, i) })
	want := []uint32{0, 63, 64, 300}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ForEach = %v, want %v (ascending order)", got, want)
		}
	}
	cap0 := len(b.words)
	b.Clear()
	if b.Count() != 0 || len(b.words) != cap0 {
		t.Fatal("Clear must empty in place, retaining capacity")
	}
}

func TestBitsetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b Bitset
	model := map[uint32]bool{}
	for op := 0; op < 20000; op++ {
		i := uint32(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0:
			b.Set(i)
			model[i] = true
		case 1:
			if rng.Intn(1000) == 0 {
				b.Clear()
				clear(model)
			}
		case 2:
			if b.Get(i) != model[i] {
				t.Fatalf("op %d: Get(%d) = %v, model %v", op, i, b.Get(i), model[i])
			}
		}
	}
	if b.Count() != len(model) {
		t.Fatalf("Count = %d, model %d", b.Count(), len(model))
	}
	n := 0
	b.ForEach(func(i uint32) {
		if !model[i] {
			t.Fatalf("ForEach yielded %d not in model", i)
		}
		n++
	})
	if n != len(model) {
		t.Fatalf("ForEach yielded %d indices, model %d", n, len(model))
	}
	// Any stops at the first index that holds, in ascending order.
	for _, above := range []uint32{0, 500, 1998, 1999, 5000} {
		want, first := false, uint32(0)
		for i := range model {
			if i >= above && (!want || i < first) {
				want, first = true, i
			}
		}
		var tried []uint32
		got := b.Any(func(i uint32) bool { tried = append(tried, i); return i >= above })
		if got != want || (want && tried[len(tried)-1] != first) {
			t.Fatalf("Any(>= %d) = %v after trying %v, want %v stopping at %d", above, got, tried, want, first)
		}
	}
}

func TestBitsetSteadyStateAllocFree(t *testing.T) {
	var b Bitset
	for i := uint32(0); i < 512; i++ {
		b.Set(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Clear()
		for i := uint32(0); i < 512; i += 3 {
			b.Set(i)
		}
		s := 0
		b.ForEach(func(uint32) { s++ })
		if s == 0 {
			t.Fatal("no bits")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state epoch cycle allocates %.1f times, want 0", allocs)
	}
}

// TestInternerMillionIDs pins the table at the million-node scale the
// sharded kernel runs at: hosts numbered 1..1e6 intern to 0..1e6-1, and the
// table is sized to the IDs interned — at most twice the next power of two
// of Len slots, whatever the largest ID — not to the ID range. IDs that all
// want the same slot spill to the overflow table, which grows fourfold and so
// stays within four times the next power of two.
func TestInternerMillionIDs(t *testing.T) {
	const n = 1_000_000
	var in Interner
	for id := wire.NodeID(1); id <= n; id++ {
		if got := in.Index(id); got != uint32(id-1) {
			t.Fatalf("Index(%d) = %d, want %d", id, got, id-1)
		}
	}
	if in.Len() != n {
		t.Fatalf("Len = %d, want %d", in.Len(), n)
	}
	if limit := 2 << bits.Len(uint(n-1)); len(in.slots) > limit {
		t.Fatalf("table = %d slots for %d IDs, want <= %d", len(in.slots), n, limit)
	}
	if in.nover != 0 {
		t.Fatalf("%d consecutive IDs overflowed their slots", in.nover)
	}
	if len(in.rev) != n {
		t.Fatalf("rev = %d entries, want %d", len(in.rev), n)
	}
	// Spot-check stability and reverse lookup at the extremes.
	for _, id := range []wire.NodeID{1, 2, n / 2, n - 1, n} {
		i, ok := in.Lookup(id)
		if !ok || i != uint32(id-1) || in.NodeID(i) != id {
			t.Fatalf("round trip failed for %d: (%d, %v)", id, i, ok)
		}
	}
	// A handful of IDs spread over the whole 32-bit range costs a handful
	// of slots, not a table as long as the largest ID.
	var sparse Interner
	for k := wire.NodeID(1); k <= 8; k++ {
		sparse.Index(k * (math.MaxUint32 / 8))
	}
	if len(sparse.slots)+len(sparse.over) != minSlots {
		t.Fatalf("8 sparse IDs took %d+%d slots, want %d", len(sparse.slots), len(sparse.over), minSlots)
	}
	// 4096 IDs strided by 2^16 share one slot; all but the first overflow.
	var strided Interner
	for k := wire.NodeID(0); k < 4096; k++ {
		strided.Index(k << 16)
	}
	if strided.nover != 4095 {
		t.Fatalf("strided IDs: %d in overflow, want 4095", strided.nover)
	}
	if limit := 2 << bits.Len(4096-1); len(strided.slots) > limit || len(strided.over) > 2*limit {
		t.Fatalf("strided IDs took %d+%d slots, want <= %d+%d", len(strided.slots), len(strided.over), limit, 2*limit)
	}
}

// TestBitsetMillionIndices pins Bitset behavior and footprint at 1e6 dense
// indices: ceil(1e6/64) = 15625 words are needed, and geometric growth must
// keep the allocation within 2x of that.
func TestBitsetMillionIndices(t *testing.T) {
	const n = 1_000_000
	var b Bitset
	for i := uint32(0); i < n; i += 7 {
		b.Set(i)
	}
	want := (n + 6) / 7
	if got := b.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	needWords := (n + 63) / 64
	if len(b.words) < needWords || len(b.words) > 2*needWords {
		t.Fatalf("words = %d, want within [%d, %d]", len(b.words), needWords, 2*needWords)
	}
	if !b.Get(0) || !b.Get(7) || b.Get(1) || b.Get(n+100) {
		t.Fatal("membership wrong at scale")
	}
	last := int64(-1)
	seen := 0
	b.ForEach(func(i uint32) {
		if int64(i) <= last || i%7 != 0 {
			t.Fatalf("ForEach yielded %d after %d", i, last)
		}
		last = int64(i)
		seen++
	})
	if seen != want {
		t.Fatalf("ForEach yielded %d indices, want %d", seen, want)
	}
}

// TestBitsetSizedToIndices pins the growth rule: a set's length in words is
// the least power of two, and at least minWords, that holds its highest
// index, so a set indexed by an Interner is never longer than that
// Interner's indices need, and each growth of the Interner costs a set at
// most one regrowth. Sets keyed by sparse IDs grow in interning order (a
// set of every index, a set of a random few) or start late (one index, set
// first when the Interner is already large).
func TestBitsetSizedToIndices(t *testing.T) {
	wantLen := func(hi uint32) int {
		n := minWords
		for n*64 <= int(hi) {
			n *= 2
		}
		return n
	}
	for _, i := range []uint32{0, 1, 127, 128, 255, 256, 1000, 1 << 20} {
		var b Bitset
		b.Set(i)
		if len(b.words) != wantLen(i) {
			t.Errorf("Set(%d) on an empty set: %d words, want %d", i, len(b.words), wantLen(i))
		}
	}

	rng := rand.New(rand.NewSource(5))
	var in Interner
	var all, few, late Bitset
	var hiFew uint32
	regrowths := make([]int, 3) // per set since the Interner last grew
	slots := 0
	for n := 0; n < 5000; n++ {
		i := in.Index(wire.NodeID(uint32(n) * fib32)) // distinct and sparse
		if len(in.slots) != slots {
			slots = len(in.slots)
			clear(regrowths)
		}
		for k, s := range []struct {
			b   *Bitset
			set bool
			hi  uint32
		}{{&all, true, i}, {&few, rng.Intn(50) == 0, max(hiFew, i)}, {&late, n >= 3000, i}} {
			if !s.set {
				continue
			}
			before := len(s.b.words)
			s.b.Set(i)
			if len(s.b.words) != before {
				if regrowths[k]++; before > 0 && regrowths[k] > 1 {
					t.Fatalf("set %d regrew twice (to %d words) while the Interner held %d slots", k, len(s.b.words), slots)
				}
			}
			if len(s.b.words) != wantLen(s.hi) {
				t.Fatalf("set %d: %d words for highest index %d (Interner Len %d), want %d",
					k, len(s.b.words), s.hi, in.Len(), wantLen(s.hi))
			}
			if k == 1 {
				hiFew = s.hi
			}
		}
	}
}

// TestConcurrentReadOnlyAccess exercises the shard kernel's sharing pattern
// under the race detector: after single-threaded construction, many
// goroutines read the same Interner and Bitset concurrently (shards read
// each other's static rosters during window merges, never writing). Any
// hidden mutation in a read path — lazy growth, memoization — would be a
// determinism bug, and -race turns it into a test failure.
func TestConcurrentReadOnlyAccess(t *testing.T) {
	const n = 100_000
	var in Interner
	var b Bitset
	for id := wire.NodeID(1); id <= n; id++ {
		i := in.Index(id)
		if id%3 == 0 {
			b.Set(i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := wire.NodeID(1 + g); id <= n; id += 8 {
				i, ok := in.Lookup(id)
				if !ok || in.NodeID(i) != id {
					t.Errorf("goroutine %d: round trip failed for %d", g, id)
					return
				}
				if got, want := b.Get(i), id%3 == 0; got != want {
					t.Errorf("goroutine %d: Get(%d) = %v, want %v", g, i, got, want)
					return
				}
			}
			if b.Count() != n/3 {
				t.Errorf("goroutine %d: Count = %d, want %d", g, b.Count(), n/3)
			}
		}(g)
	}
	wg.Wait()
}
