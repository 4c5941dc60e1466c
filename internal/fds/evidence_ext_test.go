package fds_test

import (
	"testing"
	"time"

	"clusterfds/internal/fds"
	"clusterfds/internal/mobility"
	"clusterfds/internal/montecarlo"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
)

// TestEvidenceOnlyConsultedByJudgesAtScale is the in-package property
// (TestEvidenceOnlyConsultedByJudges) over the two harnesses that drive the
// FDS from outside: the Monte-Carlo validation, whose static views and
// replicated workers never pass through formation, and scenario worlds where
// roles change hands through loss, crashes and movement rather than by the
// test's design.
func TestEvidenceOnlyConsultedByJudgesAtScale(t *testing.T) {
	evidence := fds.ProbeEvidence(t)

	t.Run("monte-carlo", func(t *testing.T) {
		montecarlo.ClusterExperiment{N: 12, LossProb: 0.4, Trials: 60, Seed: 7, Workers: 2}.AllMeasures()
		evidence.Check(t)
	})
	t.Run("lossy field with crashes", func(t *testing.T) {
		w := scenario.Build(scenario.Config{Seed: 3, Nodes: 150, FieldSide: 600, LossProb: 0.25})
		w.CrashRandomAt(w.Config().Timing.EpochStart(3)+w.Config().Timing.Interval/2, 12)
		w.RunEpochs(10)
		evidence.Check(t)
	})
	t.Run("mobile field", func(t *testing.T) {
		w := scenario.Build(scenario.Config{Seed: 5, Nodes: 40, FieldSide: 320, LossProb: 0.05,
			Mobility: &mobility.Config{Speed: 2, Pause: sim.Time(5 * time.Second)}})
		w.RunEpochs(12)
		evidence.Check(t)
	})
}
