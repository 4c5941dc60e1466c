package scenario

import (
	"math/rand"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/par"
	"clusterfds/internal/replicate"
)

// runParallelReplica builds one parallel replica of the canonical crash-wave
// scenario at the given seed and worker count and returns its trace hash.
func runParallelReplica(seed int64, workers int) string {
	p := par.Build(par.Config{
		Seed: seed, Nodes: 120, FieldSide: 500, LossProb: 0.1,
		Workers: workers, CollectTrace: true,
	})
	timing := cluster.DefaultTiming()
	p.CrashRandomAt(timing.EpochStart(2)+timing.Interval/2, 3)
	p.RunEpochs(6)
	return p.TraceHash()
}

// TestBuildParallelMatchesWorkerCounts is the replica-level worker-count
// invariance gate: the same replica hashes identically at 1, 2, and 4
// epoch workers.
func TestBuildParallelMatchesWorkerCounts(t *testing.T) {
	want := runParallelReplica(7, 1)
	for _, workers := range []int{2, 4} {
		if got := runParallelReplica(7, workers); got != want {
			t.Fatalf("Workers=%d hash %s != Workers=1 hash %s", workers, got, want)
		}
	}
}

// TestParallelNestedInReplicas nests the intra-replica epoch pool inside the
// replication engine's worker pool — the two layers of parallelism the
// repository composes (fdsim -trials N -workers W with parallel replicas).
// Each replica spins its own strip-drain goroutines while three replicate
// workers run replicas concurrently; `make race` runs this under the race
// detector. Results must be bit-identical to the fully serial nesting.
func TestParallelNestedInReplicas(t *testing.T) {
	const seed, trials = 7, 4
	body := func(workers int) func(int, *rand.Rand) string {
		return func(i int, _ *rand.Rand) string {
			return runParallelReplica(replicate.Seed(seed, i), workers)
		}
	}
	serial := replicate.Run(1, trials, seed, body(1))
	nested := replicate.Run(3, trials, seed, body(2))
	for i := range serial {
		if serial[i] != nested[i] {
			t.Fatalf("replica %d: nested hash %s != serial hash %s", i, nested[i], serial[i])
		}
	}
}
