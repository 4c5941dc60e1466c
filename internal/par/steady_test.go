//go:build !race

package par

import (
	"runtime"
	"testing"

	"clusterfds/internal/cluster"
)

// TestSteadyStateRecyclesMemory pins DESIGN.md §12's "the epoch loop runs on
// recycled memory" for the strip engine, on strips600's field (600 hosts on
// 1,200 m, loss 0.1, six crashes at epoch 3.5, two workers, seed 1): once
// the crash wave has settled, epochs 9 to 16 together allocate at most
// 0.5 MB. Strips that leave each full payload chunk to the collector, or
// barrier flights whose slices grow to the largest batch each has seen,
// allocate 1.88 MB here; the blocks reused by virtual time allocate 0.2 MB,
// most of it the protocols' own. The race detector instruments allocation,
// hence the build tag.
func TestSteadyStateRecyclesMemory(t *testing.T) {
	e := Build(Config{Seed: 1, Nodes: 600, FieldSide: 1200, LossProb: 0.1, Workers: 2})
	timing := cluster.DefaultTiming()
	e.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 6)
	e.RunEpochs(8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunEpochs(16)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("epochs 9-16 allocate %.3f MB", mb)
	if mb > 0.5 {
		t.Errorf("epochs 9-16 allocate %.3f MB, want <= 0.5 MB", mb)
	}
}
