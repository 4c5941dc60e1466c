//go:build !race

package scenario

import (
	"runtime"
	"testing"
)

// TestHostMemoryFlatInTime pins per-host state to what is in flight: on
// 2,000 hosts at the 10 k field's density, with 10 crashes in epoch 4 and
// none after, the live heap at epoch 48 may be at most 1.05× its value at
// epoch 12. A store that keeps something for every peer, report or instant
// a host has ever heard grows with the run instead. The race detector's
// shadow memory would swamp the measurement, hence the build tag.
func TestHostMemoryFlatInTime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2,000 hosts for 48 epochs")
	}
	const hosts = 2000
	w := Build(Config{Seed: 1, Nodes: hosts, FieldSide: 894, LossProb: 0.1})
	timing := w.cfg.Timing
	w.CrashRandomAt(timing.EpochStart(4)+timing.Interval/2, 10)
	live := func(e int) float64 {
		w.RunEpochs(e)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	at12, at48 := live(12), live(48)
	runtime.KeepAlive(w)
	t.Logf("live heap after GC: %.1f MB at epoch 12, %.1f MB at epoch 48 (%.3f×); %.1f and %.1f KB per host",
		at12, at48, at48/at12, at12*1024/hosts, at48*1024/hosts)
	if at48 > 1.05*at12 {
		t.Errorf("live heap grows in time: %.1f MB at epoch 12, %.1f MB at epoch 48 (%.3f×, want <= 1.05×)",
			at12, at48, at48/at12)
	}
}
