// Package montecarlo cross-validates the analytic measures of package
// analysis against the actual protocol implementation. Each experiment
// replays the paper's per-cluster setting (Section 5) many times on the
// simulator: a cluster of N hosts uniformly distributed over a disk of
// radius R with the subject node in the worst-case position on the
// circumference, one FDS execution per trial, independent Bernoulli message
// loss with probability p.
//
// The analytic probabilities at the paper's parameters (N ≥ 50, small p)
// are far below anything sampleable, so validation runs where the formulas
// predict measurable rates — small clusters and heavy loss — and checks the
// empirical Wilson interval against the prediction. Agreement there, plus
// the formula equivalences proven in package analysis, carries the curves
// into the unmeasurable regime.
package montecarlo

import (
	"fmt"
	"math/rand"

	"clusterfds/internal/analysis"
	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/metrics"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/replicate"
	"clusterfds/internal/sim"
	"clusterfds/internal/stats"
	"clusterfds/internal/wire"
)

// ClusterExperiment describes a repeated single-cluster, single-execution
// trial.
type ClusterExperiment struct {
	// N is the cluster population including the CH and the subject.
	N int
	// LossProb is the per-receiver message loss probability p.
	LossProb float64
	// Radius is the transmission range / cluster radius (default 100).
	Radius float64
	// Trials is the number of independent replications.
	Trials int
	// Seed makes the experiment reproducible. Trial i runs on a kernel
	// seeded with replicate.Seed(Seed, i), so the result is a pure function
	// of (Seed, Trials) — Workers never changes the statistics.
	Seed int64
	// Workers is the replication fan-out (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// CollectMetrics attaches a per-trial metrics registry (radio counters
	// plus FDS event series) and merges the snapshots in trial order into
	// Outcome.Metrics. Off by default: the validation's hot loop runs
	// thousands of trials and needs no observability.
	CollectMetrics bool
}

// Outcome pairs an empirical estimate with its analytic prediction.
type Outcome struct {
	// Name identifies the measure.
	Name string
	// Empirical is the measured proportion over the trials.
	Empirical stats.Proportion
	// Analytic is the closed-form prediction at the same parameters.
	Analytic float64
	// Metrics merges the per-trial registry snapshots in trial order
	// (empty unless the experiment sets CollectMetrics).
	Metrics metrics.Snapshot
}

// Consistent reports whether the analytic prediction lies within the
// empirical Wilson interval at the given z (1.96 ≈ 95%).
func (o Outcome) Consistent(z float64) bool {
	return o.Empirical.Contains(o.Analytic, z)
}

// String renders the comparison for experiment logs.
func (o Outcome) String() string {
	lo, hi := o.Empirical.Wilson(1.96)
	return fmt.Sprintf("%s: analytic=%.4g empirical=%.4g [%.4g, %.4g] (%d/%d)",
		o.Name, o.Analytic, o.Empirical.Estimate(), lo, hi,
		o.Empirical.Successes, o.Empirical.Trials)
}

func (e ClusterExperiment) defaults() ClusterExperiment {
	if e.Radius == 0 {
		e.Radius = 100
	}
	if e.Trials == 0 {
		e.Trials = 1000
	}
	if e.N < 4 {
		panic("montecarlo: need at least 4 hosts (CH, DCH, subject, helper)")
	}
	return e
}

// trial holds one simulated cluster ready for a single FDS execution.
type trial struct {
	kernel  *sim.Kernel
	medium  *radio.Medium
	hosts   []*node.Host
	fdss    []*fds.Protocol
	cls     []*cluster.Protocol
	timing  cluster.Timing
	subject int // index of the worst-case node on the circumference
	dchIdx  int // index of the deputy, placed adjacent to the CH
}

// newTrial builds the paper's analysis cluster: host 1 is the CH at the
// center and host 3 the subject on the circumference. Host 2 is the deputy;
// for the Figure 6 validation (dchAdjacent) it sits right next to the CH so
// it hears the whole cluster, as that model assumes — otherwise it is
// uniform like everyone else so it contributes the same evidence as any
// member. Views are installed statically: the experiment studies one FDS
// execution, not formation. StrictModelMode disables evidence paths the
// formulas do not credit.
func newTrial(e ClusterExperiment, seed int64, dchAdjacent bool, reg *metrics.Registry) *trial {
	k := sim.New(seed)
	params := radio.Defaults(e.LossProb)
	params.Range = e.Radius
	m := radio.New(k, params, radio.WithMetrics(reg))
	timing := cluster.DefaultTiming()

	center := geo.Point{X: 0, Y: 0}
	positions := make([]geo.Point, e.N)
	positions[0] = center
	if dchAdjacent {
		positions[1] = geo.Point{X: 1, Y: 0}
	} else {
		positions[1] = geo.UniformInDisk(k.Rand(), center, e.Radius)
	}
	if dchAdjacent {
		// Figure 6's model has no worst-case member: every non-DCH member
		// is uniform (and therefore within the DCH's range).
		positions[2] = geo.UniformInDisk(k.Rand(), center, e.Radius)
	} else {
		// Worst case for Figures 5/7: the subject on the circumference
		// (1 µm inside so floating-point noise never pushes it out of
		// range).
		angle := k.Rand().Float64() * 2 * 3.141592653589793
		positions[2] = geo.OnCircle(center, e.Radius-1e-6, angle)
	}
	for i := 3; i < e.N; i++ {
		positions[i] = geo.UniformInDisk(k.Rand(), center, e.Radius)
	}

	members := make([]wire.NodeID, e.N)
	for i := range members {
		members[i] = wire.NodeID(i + 1)
	}

	t := &trial{kernel: k, medium: m, timing: timing, subject: 2, dchIdx: 1}
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		cl := cluster.New(cluster.Config{Timing: timing})
		cl.InstallStaticView(1, members, []wire.NodeID{2}, wire.NodeID(i+1))
		cfg := fds.DefaultConfig(timing)
		cfg.StrictModelMode = true
		cfg.Metrics = reg
		f := fds.New(cfg, cl)
		h.Use(cl)
		h.Use(f)
		t.hosts = append(t.hosts, h)
		t.cls = append(t.cls, cl)
		t.fdss = append(t.fdss, f)
	}
	for _, h := range t.hosts {
		h.Boot()
	}
	return t
}

// runOneExecution advances through (almost) one full heartbeat interval:
// the FDS execution plus the peer-forwarding drain.
func (t *trial) runOneExecution() {
	t.kernel.RunUntil(t.timing.Interval - 1)
}

// trialResult carries one trial's verdict and (optionally) its metrics.
type trialResult struct {
	verdict bool
	metrics metrics.Snapshot
}

// runTrials fans e.Trials independent trials out over the replication
// engine, each on a kernel seeded deterministically from (e.Seed, i), and
// folds the per-trial verdicts into a proportion — and, when CollectMetrics
// is set, the per-trial snapshots into one merged snapshot — in trial
// order. Per-trial kernels share no mutable state, so any worker count
// yields bit-identical results.
func (e ClusterExperiment) runTrials(dchAdjacent bool, verdict func(*trial) bool) (stats.Proportion, metrics.Snapshot) {
	results := replicate.Run(e.Workers, e.Trials, e.Seed,
		func(i int, _ *rand.Rand) trialResult {
			var reg *metrics.Registry // nil: instruments are no-ops
			if e.CollectMetrics {
				reg = metrics.NewRegistry()
			}
			t := newTrial(e, replicate.Seed(e.Seed, i), dchAdjacent, reg)
			t.runOneExecution()
			return trialResult{verdict: verdict(t), metrics: reg.Snapshot()}
		})
	var p stats.Proportion
	var snap metrics.Snapshot
	for _, r := range results {
		p.AddOutcome(r.verdict)
		snap.Merge(r.metrics)
	}
	return p, snap
}

// FalseDetection measures P̂(False detection): the probability the CH
// falsely judges the operational circumference subject failed in one
// execution (Figure 5 cross-validation).
func (e ClusterExperiment) FalseDetection() Outcome {
	e = e.defaults()
	emp, snap := e.runTrials(false, func(t *trial) bool {
		return t.fdss[0].IsSuspected(wire.NodeID(t.subject + 1))
	})
	return Outcome{
		Name:      fmt.Sprintf("P(False detection) N=%d p=%.2f", e.N, e.LossProb),
		Analytic:  analysis.FalseDetection(e.N, e.LossProb),
		Empirical: emp,
		Metrics:   snap,
	}
}

// FalseDetectionOnCH measures P(False detection on CH): the probability the
// deputy falsely takes over from an operational CH (Figure 6
// cross-validation).
func (e ClusterExperiment) FalseDetectionOnCH() Outcome {
	e = e.defaults()
	emp, snap := e.runTrials(true, func(t *trial) bool {
		return t.cls[t.dchIdx].View().IsCH
	})
	return Outcome{
		Name:      fmt.Sprintf("P(False detection on CH) N=%d p=%.2f", e.N, e.LossProb),
		Analytic:  analysis.FalseDetectionOnCH(e.N, e.LossProb),
		Empirical: emp,
		Metrics:   snap,
	}
}

// Incompleteness measures P̂(Incompleteness): the probability the
// circumference subject ends the execution without the health-status
// update despite peer forwarding (Figure 7 cross-validation).
func (e ClusterExperiment) Incompleteness() Outcome {
	e = e.defaults()
	emp, snap := e.runTrials(false, func(t *trial) bool {
		return !t.fdss[t.subject].UpdateReceived()
	})
	return Outcome{
		Name:      fmt.Sprintf("P(Incompleteness) N=%d p=%.2f", e.N, e.LossProb),
		Analytic:  analysis.Incompleteness(e.N, e.LossProb),
		Empirical: emp,
		Metrics:   snap,
	}
}

// AllMeasures runs the three validations at the experiment's parameters.
func (e ClusterExperiment) AllMeasures() []Outcome {
	return []Outcome{e.FalseDetection(), e.FalseDetectionOnCH(), e.Incompleteness()}
}
