package replicate

import (
	"math/rand"
	"testing"
)

// TestOrderedResults checks that results land in replica order regardless of
// worker count (and so of the chunk size Run derives from it).
func TestOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 33} {
		out := Run(workers, 100, 42, func(i int, _ *rand.Rand) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestDeterministicRNG checks that each replica's random stream is a pure
// function of (seed, index): identical across worker counts and runs.
func TestDeterministicRNG(t *testing.T) {
	draw := func(workers int) []int64 {
		return Run(workers, 64, 7, func(i int, rng *rand.Rand) int64 { return rng.Int63() })
	}
	serial := draw(1)
	for _, workers := range []int{2, 4, 8} {
		par := draw(workers)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: replica %d drew %d, serial drew %d", workers, i, par[i], serial[i])
			}
		}
	}
	// And the stream matches the documented derivation.
	for i := range serial {
		if want := RNG(7, i).Int63(); serial[i] != want {
			t.Fatalf("replica %d drew %d, RNG(7,%d) gives %d", i, serial[i], i, want)
		}
	}
}

// TestSeedDerivation checks the SplitMix64 derivation spreads adjacent
// indices and differing experiment seeds.
func TestSeedDerivation(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		s := Seed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Seed(1,%d) == Seed(1,%d) == %d", i, prev, s)
		}
		seen[s] = i
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Error("different experiment seeds map to the same replica seed")
	}
	if Seed(1, 5) == 1+5 {
		t.Error("derivation is the raw sum; wanted a mixed seed")
	}
}

// TestEdgeCases covers n<=0, workers>n, and the Map helper.
func TestEdgeCases(t *testing.T) {
	if out := Run(0, 0, 1, func(i int, _ *rand.Rand) int { return i }); len(out) != 0 {
		t.Errorf("n=0 returned %d results", len(out))
	}
	if out := Run(16, 3, 1, func(i int, _ *rand.Rand) int { return i + 1 }); len(out) != 3 || out[2] != 3 {
		t.Errorf("workers>n: out=%v", out)
	}
	sq := Map(4, []int{2, 3, 4}, 9, func(i int, item int, _ *rand.Rand) int { return item * item })
	if len(sq) != 3 || sq[0] != 4 || sq[1] != 9 || sq[2] != 16 {
		t.Errorf("Map: out=%v", sq)
	}
}

// TestPanicPropagates checks that a panicking body surfaces on the caller,
// from the inline serial path (workers = 1) and from the pool.
func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
				}
			}()
			Run(workers, 20, 1, func(i int, _ *rand.Rand) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

// BenchmarkRunOverhead measures the engine's per-replica overhead with a
// trivial body (the floor cost of fanning out).
func BenchmarkRunOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(0, 64, int64(i), func(j int, rng *rand.Rand) int64 { return rng.Int63() })
	}
}
