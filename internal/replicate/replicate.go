// Package replicate fans independent, seeded simulation replicas out over a
// worker pool. Every empirical experiment in this repository — the Section 5
// Monte-Carlo cross-validation, the DCH reachability study, the scenario
// sweeps, and cmd/fdsim — repeats the same deterministic kernel thousands of
// times with different seeds; those repetitions share no state, so they
// parallelize perfectly across GOMAXPROCS cores.
//
// Determinism is the design center. Each replica i derives its own random
// stream from (seed, i) alone via a SplitMix64 mix, never from scheduling
// order, and results are collected into slot i of the output slice. A run
// with 8 workers is therefore bit-for-bit identical to a run with 1 worker,
// and to any other run with the same seed — parallelism changes wall-clock
// time, nothing else.
package replicate

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"clusterfds/internal/sim"
)

// Body is one replica: index i in [0, n) and a private random source derived
// deterministically from the experiment seed and i. The body must not share
// mutable state with other replicas; everything it touches should hang off
// the rng (e.g. a sim.Kernel seeded from Seed(seed, i)).
type Body[R any] func(i int, rng *rand.Rand) R

// Seed derives replica i's seed from the experiment seed via sim.SplitMix64
// (Steele et al.'s finalizer — a strong mixer, so adjacent replica indices
// yield uncorrelated seeds). The derivation is a pure function of (seed, i):
// it does not depend on worker count, chunk size, or scheduling, which is
// what makes parallel runs reproducible. internal/shard derives its per-host
// streams from the same primitive.
func Seed(seed int64, i int) int64 {
	return int64(sim.SplitMix64(sim.SplitMix64(uint64(seed)) + uint64(i)))
}

// RNG returns replica i's private random source, seeded with Seed(seed, i).
func RNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(Seed(seed, i)))
}

// Run executes n replicas of body over a pool of workers goroutines (0 means
// runtime.GOMAXPROCS(0)) and returns their results in replica order. Output
// is identical to a serial loop
//
//	for i := 0; i < n; i++ { out[i] = body(i, RNG(seed, i)) }
//
// for every worker count. Workers == 1 runs the bodies inline on the calling
// goroutine, which is exactly that loop (no goroutines, no channels).
// Workers claim consecutive chunks of replicas, about four per worker, so
// the claim is amortized and stragglers re-balance. A panic in a body is
// re-raised on the caller.
func Run[R any](workers, n int, seed int64, body Body[R]) []R {
	if body == nil {
		panic("replicate: nil body")
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	out := make([]R, n)

	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = body(i, RNG(seed, i))
		}
		return out
	}

	chunk := max(1, n/(workers*4))
	var (
		next      atomic.Int64 // next unclaimed replica index
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				for i := start; i < min(start+chunk, n); i++ {
					out[i] = body(i, RNG(seed, i))
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// Map is Run over a parameter slice: it runs body(i, items[i], rng) for
// every item, in parallel, preserving order.
func Map[T, R any](workers int, items []T, seed int64, body func(i int, item T, rng *rand.Rand) R) []R {
	return Run(workers, len(items), seed, func(i int, rng *rand.Rand) R {
		return body(i, items[i], rng)
	})
}
