// Crash-study results: what one replica of a Matrix cell measures
// (CrashOutcome) and how a cell's replicas fold into one report
// (Summarize). Matrix is the one driver that builds and runs the replicas:
// replica i always runs on a world seeded with replicate.Seed(Config.Seed,
// i), so every figure here is independent of the worker count.
package scenario

import (
	"time"

	"clusterfds/internal/metrics"
	"clusterfds/internal/sim"
	"clusterfds/internal/stats"
	"clusterfds/internal/wire"
)

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
	// end of the run; MidFalseSuspicions, just before the disruption of a
	// Matrix scenario heals, when partitions and sleep are at their most
	// confusing.
	FalseSuspicions, MidFalseSuspicions int
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
	// Victims, Undetected, Admitted, AdmittedUndetected, FalseSuspicions,
	// MidFalseSuspicions and ReportTx are totals across replicas.
	Victims, Undetected, Admitted, AdmittedUndetected, FalseSuspicions, MidFalseSuspicions int
	ReportTx                                                                               int64
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
		s.MidFalseSuspicions += o.MidFalseSuspicions
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
