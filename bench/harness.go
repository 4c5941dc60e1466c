package main

import (
	"fmt"
	"time"
)

// runner executes one child run. The command spawns a fresh process per run
// (clean peak RSS and GC state); tests run in-process at toy scale.
type runner func(w workload, o runOpts) (*result, error)

// plan says how much to measure.
type plan struct {
	// seed goes to the generators only. Every repetition of a measurement
	// runs it, so two commits are compared on the same inputs whatever the
	// host's speed.
	seed int64
	// reps is the number of untraced repetitions per workload; traced says
	// whether the traced pass follows them.
	reps   int
	traced bool
	run    runner
	// workloads is the set in use: the real sizes, or toy ones under test.
	workloads []workload
	// micro caches the micro-benchmarks, which do not depend on the
	// workload: one invocation runs them once.
	micro map[string]float64
}

// measurement is everything measured for one workload.
type measurement struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`

	// EndToEnd holds the end-to-end metrics the engine exposes: median,
	// quartiles and n over the untraced repetitions. The simulated ones are
	// identical in every repetition (the gate checks it).
	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	// Layer holds the per-layer metrics of the traced pass.
	Layer map[string]float64 `json:"per_layer,omitempty"`
	Spans []spanRow          `json:"spans,omitempty"`

	// Attempted and Failed count operations over the untraced repetitions.
	// One operation is one required detection, a (victim, operational
	// observer) pair; it fails if the observer is not aware of the victim at
	// the end of the run. A child that dies, or a failed determinism or
	// correctness gate, fails every operation.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Errors lists every determinism or correctness failure.
	Errors []string `json:"errors,omitempty"`

	Reps []*result `json:"reps,omitempty"`
	// Setups holds every set-up time sampled: one per repetition, plus the
	// set-up-only children.
	Setups []float64 `json:"setups,omitempty"`
}

// setupSamples is how many extra children of a measurement stop as soon as
// they are ready to drain. Set-up takes 4-17 ms, most of it process start,
// and a single sample moves by 10-50 %; a driver rejects a change whose
// set-up median is 25 % worse, and its contract says how to keep that from
// being noise: "set up several times in a run and report the median".
const setupSamples = 8

func (m *measurement) fail(format string, args ...any) {
	m.Errors = append(m.Errors, fmt.Sprintf(format, args...))
}

// gate fails every operation of m if any check failed.
func (m *measurement) gate() {
	if len(m.Errors) > 0 {
		m.Failed = m.Attempted
	}
}

// workersFor is the worker count a workload's repetitions run at.
func workersFor(w workload) int {
	if w.eng == engPar || w.eng == engShard {
		return parallelWorkers()
	}
	return 1
}

// child runs one child of w on behalf of m. It returns nil, with the failure
// recorded in m, if the child died.
func (p *plan) child(m *measurement, w workload, o runOpts) *result {
	o.seed, o.start = p.seed, time.Now()
	r, err := p.run(w, o)
	if err != nil {
		m.fail("%v", err)
		return nil
	}
	return r
}

// measure runs the untraced repetitions of w, applies the determinism and
// correctness gate, folds the end-to-end metrics and, if the plan asks for
// it, runs the traced pass.
func (p *plan) measure(w workload) *measurement {
	m := p.begin(w)
	for i := 0; i < p.reps && p.rep(w, m); i++ {
	}
	p.finish(w, m)
	return m
}

// begin opens a measurement of w with the set-up-only samples.
func (p *plan) begin(w workload) *measurement {
	m := &measurement{Workload: w.name, Why: w.why, Seed: p.seed, Workers: workersFor(w)}
	for i := 0; i < setupSamples; i++ {
		if r := p.child(m, w, runOpts{workers: m.Workers, setupOnly: true}); r != nil {
			m.Setups = append(m.Setups, r.SetupS)
		}
	}
	return m
}

// rep runs one untraced repetition of w into m and counts its operations. It
// reports false if the child died.
func (p *plan) rep(w workload, m *measurement) bool {
	r := p.child(m, w, runOpts{workers: m.Workers})
	if r == nil {
		// A dead child's required detections all count as attempted.
		m.Attempted += w.crashes * (w.hosts - w.crashes)
		return false
	}
	m.Attempted += r.Pairs
	m.Failed += r.Pairs - r.PairsAware
	m.Reps = append(m.Reps, r)
	m.Setups = append(m.Setups, r.SetupS)
	return true
}

// finish gates and folds the repetitions m holds.
func (p *plan) finish(w workload, m *measurement) {
	defer m.gate()
	if len(m.Errors) > 0 || len(m.Reps) == 0 {
		return
	}
	base := m.Reps[0]
	if base.Unseen > 0 {
		m.fail("seed %d: %d of %d victims were detected by no observer", p.seed, base.Unseen, w.crashes)
	}
	if base.Events == 0 {
		m.fail("seed %d: the engine reports 0 simulated events", p.seed)
	}
	for i, r := range m.Reps[1:] {
		checkSame(m, fmt.Sprintf("repetition %d vs repetition 0", i+1), base, r)
	}

	hostTime := map[string]func(*result) float64{
		"wall_s":      func(r *result) float64 { return r.WallS },
		"peak_rss_mb": func(r *result) float64 { return r.PeakRSSMB },
		"alloc_mb":    func(r *result) float64 { return r.AllocMB },
	}
	m.EndToEnd = map[string]stat{"setup_s": summarize(m.Setups)}
	for _, d := range endToEnd {
		if f, ok := hostTime[d.Name]; ok {
			values := make([]float64, len(m.Reps))
			for i, r := range m.Reps {
				values[i] = f(r)
			}
			m.EndToEnd[d.Name] = summarize(values)
		} else if v, ok := base.Sim[d.Name]; ok {
			m.EndToEnd[d.Name] = stat{Median: v, Q1: v, Q3: v, N: len(m.Reps)}
		}
	}

	if p.traced && len(m.Errors) == 0 {
		p.measureTraced(w, m, base)
	}
}

// checkSame fails m unless b's simulated outcome equals a's: same seed, same
// result, whatever the repetition, the tracing or the worker count.
func checkSame(m *measurement, what string, a, b *result) {
	if a.Fingerprint != b.Fingerprint {
		m.fail("%s: fingerprint %s != %s", what, b.Fingerprint, a.Fingerprint)
	}
	if a.Pairs != b.Pairs || a.PairsAware != b.PairsAware || a.Unseen != b.Unseen {
		m.fail("%s: detection outcome differs (%d/%d aware, %d unseen vs %d/%d, %d)",
			what, b.PairsAware, b.Pairs, b.Unseen, a.PairsAware, a.Pairs, a.Unseen)
	}
	for name, v := range a.Sim {
		// Traced mesh runs add the link wrapper's tx counts; compare what
		// both sides expose.
		if bv, ok := b.Sim[name]; ok && bv != v {
			m.fail("%s: %s = %v != %v", what, name, bv, v)
		}
	}
}

// measureTraced runs the traced pass of w against base, an untraced
// repetition, and fills m.Layer and m.Spans: the span replica (serial world)
// or wrappers (mesh), the one-worker and trace-collecting runs (par, shard),
// and the micro-benchmarks. Every run it makes must reproduce base's
// simulated outcome.
func (p *plan) measureTraced(w workload, m *measurement, base *result) {
	layer := map[string]float64{}
	for _, d := range layerMetrics() {
		layer[d.Name] = 0
	}
	m.Layer = layer
	merge := func(r *result) {
		for k, v := range r.Layer {
			layer[k] = v
		}
	}
	for name, s := range m.EndToEnd {
		if _, ok := layer[name]; ok {
			layer[name] = s.Median
		}
	}
	layer["detect_latency_n"] = base.Sim["detect_latency_n"]
	merge(base)

	traced := p.child(m, w, runOpts{workers: m.Workers, traced: true})
	if traced == nil {
		return
	}
	checkSame(m, "traced vs untraced", base, traced)
	merge(traced)
	m.Spans = traced.Spans
	for name, v := range traced.Sim {
		if _, ok := base.Sim[name]; !ok {
			layer[name] = v // tx counts only the mesh link wrapper sees
		}
	}

	wall := m.EndToEnd["wall_s"].Median
	layer["trace.overhead_ratio"] = traced.WallS / wall
	switch w.eng {
	case engWorld:
		layer["sim.events"] = float64(base.Events)
		layer["sim.ns_per_event"] = wall * 1e9 / float64(base.Events)
	case engPar, engShard:
		one := p.child(m, w, runOpts{workers: 1})
		if one == nil {
			return
		}
		checkSame(m, "workers=1 vs workers=N", base, one)
		prefix := "shard."
		if w.eng == engPar {
			prefix = "par."
			// The strip engine hashes its trace only when it collects
			// one, so the hash comparison has its own pair of runs.
			oneTraced := p.child(m, w, runOpts{workers: 1, traced: true})
			if oneTraced == nil {
				return
			}
			if oneTraced.TraceHash != traced.TraceHash {
				m.fail("par trace hash differs: workers=1 %s, workers=%d %s",
					oneTraced.TraceHash, m.Workers, traced.TraceHash)
			}
			// The serial world on the same field, seed and epochs.
			field, _ := workloadByName(p.workloads, "field600")
			serial := p.child(m, field, runOpts{workers: 1})
			if serial == nil {
				return
			}
			layer["par.vs_serial_w1"] = serial.WallS / one.WallS
		}
		layer[prefix+"run_s_w1"] = one.WallS
		layer[prefix+"speedup"] = one.WallS / wall
	}

	if p.micro == nil {
		p.micro = runMicro()
	}
	for k, v := range p.micro {
		layer[k] = v
	}
}
