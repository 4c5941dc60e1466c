package scenario

import (
	"math"
	"runtime"
	"testing"
)

// TestMemoryLinearInN pins per-host state to the neighbourhood: at
// field600's density (600 hosts per 1.44 km²), four times the hosts on four
// times the area may allocate at most 1.5× as many bytes per host over two
// crash-free epochs. A per-host table as long as the largest NodeID heard
// makes each host's share grow with N, and the field's total with N².
func TestMemoryLinearInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs 5,000 hosts")
	}
	perHost := func(n int) float64 {
		side := 1200 * math.Sqrt(float64(n)/600)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Build(Config{Seed: 1, Nodes: n, FieldSide: side}).RunEpochs(2)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perHost(1000), perHost(4000)
	t.Logf("bytes allocated per host: %.0f at 1,000 hosts, %.0f at 4,000 (%.2f×)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("bytes per host grow with N: %.0f at 1,000 hosts, %.0f at 4,000 (%.2f×, want <= 1.5×)",
			small, large, large/small)
	}
}
