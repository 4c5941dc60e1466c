// The head-to-head sweep matrix: every detector stack crossed with a set of
// fault scenarios, all cells sharing the same experiment seed so each
// detector faces bit-identical deployments, crash picks, and loss draws —
// a paired comparison, not independent samples. Results export as a TSV
// whose FNV-64a hash is the determinism fingerprint checked by
// `make baseline-smoke` at different worker counts.
package scenario

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"clusterfds/internal/mobility"
	"clusterfds/internal/replicate"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// ScenarioKind selects a fault schedule for one matrix cell.
type ScenarioKind int

// Available scenarios. Every cell also crashes Matrix.Crashes hosts at the
// crash epoch's midpoint, so detection quality is measured under each
// disruption, not instead of it.
const (
	// ScenarioCrashWave is the plain crash study: no extra disruption.
	ScenarioCrashWave ScenarioKind = iota + 1
	// ScenarioPartition mutes a third of the hosts (transmit-side silence:
	// they still hear, their timers still run) for the disruption window —
	// a one-way partition that should be rescinded after it heals.
	ScenarioPartition
	// ScenarioDutySleep puts every fourth host's radio to sleep for the
	// disruption window, longer than the suspicion timeout — the paper's
	// Section 6 concern that sleep mode causes false detections.
	ScenarioDutySleep
	// ScenarioMobility runs random-waypoint movement on every host.
	ScenarioMobility
)

// String implements fmt.Stringer.
func (k ScenarioKind) String() string {
	switch k {
	case ScenarioCrashWave:
		return "crash-wave"
	case ScenarioPartition:
		return "partition"
	case ScenarioDutySleep:
		return "duty-sleep"
	case ScenarioMobility:
		return "mobility"
	default:
		return fmt.Sprintf("scenario(%d)", int(k))
	}
}

// ScenarioKinds returns every scenario in declaration order.
func ScenarioKinds() []ScenarioKind {
	return []ScenarioKind{ScenarioCrashWave, ScenarioPartition, ScenarioDutySleep, ScenarioMobility}
}

// The disruption window of the partition and sleep scenarios, in epochs:
// five intervals, exceeding the baselines' 4-interval suspicion timeout so
// the disruption must cause false suspicions that a sound detector later
// rescinds. The mobility scenario's hosts walk at mobilitySpeed m/s.
const (
	disruptFrom, disruptUntil = 4, 9
	mobilitySpeed             = 5
)

// Matrix is the head-to-head study and the repository's one crash-study
// driver: Stacks x Scenarios, each cell a seeded replica sweep (a plain
// crash study is the one cell of one stack under ScenarioCrashWave). All
// cells reuse Config.Seed, so replica i of every cell sees the same field
// layout and the same crash victims (for stacks sharing a build order) —
// differences in the measurements come from the detectors, not the draw.
//
// Each replica owns its whole simulation — kernel, medium, hosts — so
// replicas need no locks. The one shared object is Config.Trace: leave it
// nil (or use a concurrency-safe sink such as trace.Memory) when Workers
// != 1.
type Matrix struct {
	// Config is the base scenario; its Stack field is overridden per cell.
	Config Config
	// Stacks to compare; nil means every stack.
	Stacks []Stack
	// Scenarios to run; nil means every scenario.
	Scenarios []ScenarioKind
	// Crashes is how many hosts fail per replica (default 2).
	Crashes int
	// CrashEpoch is the epoch at whose midpoint the crashes occur
	// (default 3).
	CrashEpoch int
	// Epochs is how long each replica runs (default 12, leaving three
	// post-disruption epochs for rescission).
	Epochs int
	// Trials is the number of replicas per cell (default 5).
	Trials int
	// Workers is the per-cell fan-out (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

func (m Matrix) defaults() Matrix {
	if m.Stacks == nil {
		m.Stacks = Stacks()
	}
	if m.Scenarios == nil {
		m.Scenarios = ScenarioKinds()
	}
	if m.Crashes == 0 {
		m.Crashes = 2
	}
	if m.CrashEpoch == 0 {
		m.CrashEpoch = 3
	}
	if m.Epochs == 0 {
		m.Epochs = 12
	}
	if m.Trials == 0 {
		m.Trials = 5
	}
	return m
}

// MatrixCell is one (stack, scenario) cell's aggregate.
type MatrixCell struct {
	Stack    Stack
	Scenario ScenarioKind
	Summary  StudySummary
}

// MatrixResult is the whole study, cells in (scenario-major, stack-minor)
// order.
type MatrixResult struct {
	Cells []MatrixCell
}

// Run executes every cell and returns the result. Cell order, replica
// seeding, and all measurements are independent of Workers.
func (m Matrix) Run() MatrixResult {
	m = m.defaults()
	var r MatrixResult
	for _, kind := range m.Scenarios {
		for _, stack := range m.Stacks {
			r.Cells = append(r.Cells, m.runCell(stack, kind))
		}
	}
	return r
}

func (m Matrix) runCell(stack Stack, kind ScenarioKind) MatrixCell {
	cfg := m.Config
	cfg.Stack = stack
	if kind == ScenarioMobility {
		cfg.Mobility = &mobility.Config{Speed: mobilitySpeed, Pause: sim.Time(2 * time.Second)}
	}
	outs := replicate.Run(m.Workers, m.Trials, cfg.Seed, func(i int, _ *rand.Rand) CrashOutcome {
		c := cfg
		c.Seed = replicate.Seed(cfg.Seed, i)
		w := Build(c)
		timing := w.Config().Timing
		crashAt := timing.EpochStart(wire.Epoch(m.CrashEpoch)) + timing.Interval/2
		victims := w.CrashRandomAt(crashAt, m.Crashes)
		scheduleDisruption(w, kind)

		// Sample false suspicions just before the disruption heals: the
		// partition/sleep window exceeds the suspicion timeout, so this is
		// where disruption-induced suspicions peak.
		mid := 0
		midAt := timing.EpochStart(disruptUntil) - timing.Interval/4
		w.Kernel.At(midAt, func() { mid = len(w.FalseSuspicions()) })

		w.RunEpochs(m.Epochs)
		out := measureCrash(w, victims)
		out.MidFalseSuspicions = mid
		return out
	})
	return MatrixCell{Stack: stack, Scenario: kind, Summary: Summarize(outs)}
}

// scheduleDisruption installs the cell's fault schedule on a fresh world.
func scheduleDisruption(w *World, kind ScenarioKind) {
	timing := w.Config().Timing
	from := timing.EpochStart(disruptFrom)
	until := timing.EpochStart(disruptUntil)
	ids := w.NodeIDs()
	switch kind {
	case ScenarioPartition:
		w.Kernel.At(from, func() {
			for j := 0; j < len(ids); j += 3 {
				w.Medium.Silence(ids[j], true)
			}
		})
		w.Kernel.At(until, func() {
			for j := 0; j < len(ids); j += 3 {
				w.Medium.Silence(ids[j], false)
			}
		})
	case ScenarioDutySleep:
		w.Kernel.At(from, func() {
			for j := 0; j < len(ids); j += 4 {
				w.Host(ids[j]).SleepRadio(until)
			}
		})
	}
}

// measureCrash extracts the standard crash-study measurements from a run
// world, the same for every cell.
func measureCrash(w *World, victims []wire.NodeID) CrashOutcome {
	var o CrashOutcome
	o.Victims = victims
	for _, v := range victims {
		aware, operational := w.Completeness(v)
		o.Aware += aware
		o.Operational += operational
		undetected := aware == 0 && operational > 0
		if undetected {
			o.Undetected++
		}
		if w.AdmittedAtCrash(v) {
			o.Admitted++
			if undetected {
				o.AdmittedUndetected++
			}
		}
		o.DetectionLatencies = append(o.DetectionLatencies, w.DetectionLatencies(v)...)
	}
	sort.Slice(o.DetectionLatencies, func(a, b int) bool {
		return o.DetectionLatencies[a] < o.DetectionLatencies[b]
	})
	o.FalseSuspicions = len(w.FalseSuspicions())
	counts := w.MessageCounts()
	for k, v := range counts {
		if strings.HasPrefix(k, "tx:") {
			o.TxMessages += v
		}
	}
	o.TxBytes = counts["tx-bytes"]
	o.ReportTx = w.Medium.Sent(wire.KindFailureReport)
	o.Energy = w.TotalEnergySpent()
	o.Metrics = w.MetricsSnapshot()
	return o
}

// WriteTSV writes the matrix as a fixed-format table, one row per cell. The
// byte stream is deterministic (same seed, any worker count), so its hash
// doubles as the study's replication fingerprint.
func (r MatrixResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scenario\tstack\ttrials\tcompleteness\tlat_mean_s\tlat_p95_s\tfp_end\tfp_mid\ttx_msgs\ttx_bytes\tenergy"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		latMean, latP95 := 0.0, 0.0
		if c.Summary.LatencySeconds.N() > 0 {
			latMean = c.Summary.LatencySeconds.Mean()
			latP95 = c.Summary.LatencySeconds.Percentile(0.95)
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.2f\t%.2f\t%d\t%d\t%.0f\t%.0f\t%.3f\n",
			c.Scenario, c.Stack, c.Summary.Trials,
			c.Summary.Completeness.Mean(), latMean, latP95,
			c.Summary.FalseSuspicions, c.Summary.MidFalseSuspicions,
			c.Summary.TxMessages, c.Summary.TxBytes, c.Summary.Energy); err != nil {
			return err
		}
	}
	return nil
}

// Hash returns the FNV-64a hash of the TSV export — the value two runs (or
// two worker counts) must agree on bit-for-bit.
func (r MatrixResult) Hash() uint64 {
	h := fnv.New64a()
	if err := r.WriteTSV(h); err != nil {
		panic(err) // hash.Hash Write never errors
	}
	return h.Sum64()
}
