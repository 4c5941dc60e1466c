// Replica sweeps: every scenario experiment in this repository boils down
// to "build the same world under many seeds, run it, measure". These
// helpers put that pattern on the replication engine so sweeps use every
// core while staying bit-reproducible: replica i always runs on a world
// seeded with replicate.Seed(cfg.Seed, i), regardless of worker count.
package scenario

import (
	"math/rand"
	"time"

	"clusterfds/internal/metrics"
	"clusterfds/internal/replicate"
	"clusterfds/internal/sim"
	"clusterfds/internal/stats"
	"clusterfds/internal/wire"
)

// Replicas builds and measures trials independent copies of the scenario in
// parallel. Replica i gets cfg with Seed = replicate.Seed(cfg.Seed, i) and a
// freshly built world; body runs the world and extracts a result. Results
// come back in replica order, identical for every worker count (0 =
// GOMAXPROCS, 1 = serial).
//
// Each replica owns its whole simulation — kernel, medium, hosts — so
// bodies need no locks. The one shared object is cfg.Trace: leave it nil
// (or use a concurrency-safe sink such as trace.Memory) when workers != 1.
func Replicas[R any](cfg Config, trials, workers int, body func(i int, w *World) R) []R {
	return replicate.Run(workers, trials, cfg.Seed, func(i int, _ *rand.Rand) R {
		c := cfg
		c.Seed = replicate.Seed(cfg.Seed, i)
		return body(i, Build(c))
	})
}

// CrashStudy is the canonical sweep: crash a few hosts mid-run and measure
// detection quality and cost over many seeded replicas.
type CrashStudy struct {
	// Config is the per-replica scenario; Config.Seed is the experiment
	// seed from which replica seeds are derived.
	Config Config
	// Crashes is how many hosts fail per replica (default 1).
	Crashes int
	// CrashEpoch is the epoch at whose midpoint the crashes occur
	// (default 3).
	CrashEpoch int
	// Epochs is how long each replica runs (default 8).
	Epochs int
	// Trials is the number of replicas (default 20).
	Trials int
	// Workers is the fan-out (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// CrashOutcome is one replica's measurements.
type CrashOutcome struct {
	// Victims are the crashed hosts, ascending.
	Victims []wire.NodeID
	// Aware and Operational sum, over the victims, how many operational
	// hosts knew of the crash and how many could have.
	Aware, Operational int
	// DetectionLatencies collects every observer's first-detection latency
	// across all victims, ascending.
	DetectionLatencies []sim.Time
	// Undetected counts the victims no operational host suspects.
	Undetected int
	// Admitted counts the victims admitted to a cluster at their crash
	// instant (World.AdmittedAtCrash); AdmittedUndetected, those of them
	// that are undetected.
	Admitted, AdmittedUndetected int
	// FalseSuspicions counts operational-suspects-operational pairs at the
	// end of the run.
	FalseSuspicions int
	// TxMessages and TxBytes total the fleet's transmissions; ReportTx is
	// the failure-report share of TxMessages.
	TxMessages, TxBytes, ReportTx int64
	// Energy is the fleet's cumulative energy expenditure.
	Energy float64
	// Metrics is the replica's full registry snapshot: per-kind counters,
	// per-epoch series, latency histograms, summary gauges.
	Metrics metrics.Snapshot
}

// Completeness returns the fraction of operational hosts aware of the
// victims (1 when nothing crashed).
func (o CrashOutcome) Completeness() float64 {
	if o.Operational == 0 {
		return 1
	}
	return float64(o.Aware) / float64(o.Operational)
}

func (s CrashStudy) defaults() CrashStudy {
	if s.Crashes == 0 {
		s.Crashes = 1
	}
	if s.CrashEpoch == 0 {
		s.CrashEpoch = 3
	}
	if s.Epochs == 0 {
		s.Epochs = 8
	}
	if s.Trials == 0 {
		s.Trials = 20
	}
	return s
}

// Run executes the study and returns per-replica outcomes in replica order.
func (s CrashStudy) Run() []CrashOutcome {
	s = s.defaults()
	return Replicas(s.Config, s.Trials, s.Workers, func(i int, w *World) CrashOutcome {
		timing := w.Config().Timing
		crashAt := timing.EpochStart(wire.Epoch(s.CrashEpoch)) + timing.Interval/2
		victims := w.CrashRandomAt(crashAt, s.Crashes)
		w.RunEpochs(s.Epochs)
		return measureCrash(w, victims)
	})
}

// StudySummary aggregates outcomes for reporting.
type StudySummary struct {
	// Trials is how many replicas contributed.
	Trials int
	// Completeness summarizes the per-replica completeness fractions.
	Completeness *stats.Summary
	// LatencySeconds summarizes every detection latency across replicas.
	LatencySeconds *stats.Summary
	// TxMessages, TxBytes, Energy are per-replica means.
	TxMessages, TxBytes, Energy float64
	// Victims, Undetected, Admitted, AdmittedUndetected, FalseSuspicions and
	// ReportTx are totals across replicas.
	Victims, Undetected, Admitted, AdmittedUndetected, FalseSuspicions int
	ReportTx                                                           int64
	// Metrics merges every replica's snapshot in replica order: counters
	// and series sum, gauges sum (divide by Trials for a mean), histograms
	// combine. Identical for every worker count.
	Metrics metrics.Snapshot
}

// Summarize folds per-replica outcomes, in replica order, into one report.
func Summarize(outcomes []CrashOutcome) StudySummary {
	s := StudySummary{
		Trials:         len(outcomes),
		Completeness:   stats.NewSummary(true),
		LatencySeconds: stats.NewSummary(true),
	}
	for _, o := range outcomes {
		s.Completeness.Add(o.Completeness())
		for _, l := range o.DetectionLatencies {
			s.LatencySeconds.Add(time.Duration(l).Seconds())
		}
		s.TxMessages += float64(o.TxMessages)
		s.TxBytes += float64(o.TxBytes)
		s.Energy += float64(o.Energy)
		s.Victims += len(o.Victims)
		s.Undetected += o.Undetected
		s.Admitted += o.Admitted
		s.AdmittedUndetected += o.AdmittedUndetected
		s.FalseSuspicions += o.FalseSuspicions
		s.ReportTx += o.ReportTx
		s.Metrics.Merge(o.Metrics)
	}
	if n := float64(len(outcomes)); n > 0 {
		s.TxMessages /= n
		s.TxBytes /= n
		s.Energy /= n
	}
	return s
}
