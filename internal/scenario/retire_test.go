package scenario

import (
	"testing"

	"clusterfds/internal/wire"
)

// TestNoStaleReportCopies guards intercluster's report lifetime on the two
// benchmark fields whose forwarders work hardest. A report's state retires
// reportEpochs boundaries after its epoch, and a copy heard after that is
// ignored by the forwarder; on these fields no copy may arrive that late, so
// the retirement changes nothing a host sends. dense300's field runs with
// twice the workload's crashes: on seed 3 a cluster loses its clusterhead
// and deputies, and the orphan takeover announced on the next boundary keeps
// the report travelling 1.2 epochs after its epoch began (the workload's
// own 4 crashes stay under 1.0, which reportEpochs = 1 would also pass).
// field600's field has 92 clusters and the longest backbone. The test also
// checks that states do retire, so it cannot pass by keeping them all.
func TestNoStaleReportCopies(t *testing.T) {
	fields := []struct {
		name                        string
		nodes                       int
		side                        float64
		crashes, crashEpoch, epochs int
	}{
		{"dense300", 300, 200, 8, 4, 12},
		{"field600", 600, 1200, 6, 3, 8},
	}
	for _, f := range fields {
		for seed := int64(1); seed <= 3; seed++ {
			w := Build(Config{Seed: seed, Nodes: f.nodes, FieldSide: f.side, LossProb: 0.1})
			tm := w.Config().Timing
			w.CrashRandomAt(tm.EpochStart(wire.Epoch(f.crashEpoch))+tm.Interval/2, f.crashes)
			w.RunEpochs(f.epochs)
			stale, pooled, seen := 0, 0, 0
			for _, id := range w.NodeIDs() {
				fw := w.Forwarder(id)
				stale += fw.StaleCopies()
				pooled += fw.PooledReports()
				seen += fw.ReportCount()
			}
			if stale != 0 {
				t.Errorf("%s seed %d: %d report copies arrived after their report retired", f.name, seed, stale)
			}
			if seen == 0 || pooled == 0 {
				t.Errorf("%s seed %d: %d reports seen, %d states retired; want both > 0", f.name, seed, seen, pooled)
			}
		}
	}
}
