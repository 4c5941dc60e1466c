package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// toy shrinks a workload to test scale — about 40 hosts / 16 daemons at the
// same host density, 6 epochs (flood needs 4 intervals of silence before it
// suspects) — through the same code paths.
func toy(w workload) workload {
	switch w.eng {
	case engMesh:
		w.hosts = 16
	case engShard:
		// The shard engine wants several cell columns to partition.
		w.side *= 0.2
		w.hosts = 400
	default:
		w.side *= math.Sqrt(40 / float64(w.hosts))
		w.hosts = 40
	}
	w.epochs, w.crashEpoch = 7, 2
	if w.crashes > 2 {
		w.crashes = 2
	}
	return w
}

// toyPlan runs every workload at toy scale, in-process, through the same
// harness code the command uses. Seed 5 is one on which every toy field has
// all its victims detected by everyone, as the gate demands (on seeds 1-4 a
// 40-host field has a victim that crashed before a cluster admitted it).
func toyPlan() *plan {
	set := make([]workload, len(workloads))
	for i, w := range workloads {
		set[i] = toy(w)
	}
	return &plan{
		seed: 5, reps: 2, traced: true, workloads: set,
		run: func(w workload, o runOpts) (*result, error) { return runWorkload(w, o) },
	}
}

func TestMain(m *testing.M) {
	microOps = 2_000
	os.Exit(m.Run())
}

// TestToyWorkloads drives all six workloads through the untraced repetitions,
// the gate and the traced pass, and checks that what they emit is exactly
// what BENCHMARK.json's declarations promise.
func TestToyWorkloads(t *testing.T) {
	p := toyPlan()
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	layers := map[string]bool{}
	for _, d := range layerMetrics() {
		layers[d.Name] = true
	}
	for _, w := range p.workloads {
		m := p.measure(w)
		for _, e := range m.Errors {
			t.Errorf("%s: %s", w.name, e)
		}
		if m.Attempted == 0 || m.Failed != 0 {
			t.Errorf("%s: %d operations, %d failed; want some and none", w.name, m.Attempted, m.Failed)
		}
		for _, d := range endToEnd {
			if s, ok := m.EndToEnd[d.Name]; d.Universal && (!ok || s.Median <= 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want present and never 0", w.name, d.Name, s.Median)
			}
		}
		for name := range m.EndToEnd {
			if !e2e[name] {
				t.Errorf("%s: emits undeclared end-to-end metric %q", w.name, name)
			}
		}
		for name := range m.Layer {
			if !layers[name] {
				t.Errorf("%s: emits undeclared per-layer metric %q", w.name, name)
			}
		}
		if len(m.Layer) != len(layers) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.name, len(m.Layer), len(layers))
		}
		// Each engine's own layer must have done work.
		probe := map[engine]string{
			engWorld: "node.deliver_calls", engPar: "par.speedup",
			engShard: "shard.speedup", engMesh: "transport.broadcast_calls",
		}[w.eng]
		if m.Layer[probe] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w.name, probe, m.Layer[probe])
		}
	}
}

// TestGateCountsUndetectedVictims pins the correctness gate: a victim no
// observer detected stays among the required detections, fails them, and
// fails the run.
func TestGateCountsUndetectedVictims(t *testing.T) {
	p := toyPlan()
	w := p.workloads[0]
	inner := p.run
	p.run = func(w workload, o runOpts) (*result, error) {
		r, err := inner(w, o)
		if err == nil {
			// One victim fewer was detected by anyone.
			lost := r.PairsAware / w.crashes
			r.PairsAware -= lost
			r.Unseen++
		}
		return r, err
	}
	p.traced = false
	m := p.measure(w)
	if len(m.Errors) == 0 || m.Failed != m.Attempted {
		t.Errorf("an undetected victim passed the gate: errors %v, %d of %d operations failed", m.Errors, m.Failed, m.Attempted)
	}
	var r result
	r.addVictim(0, 10)
	r.addVictim(7, 10)
	if r.Pairs != 20 || r.PairsAware != 7 || r.Unseen != 1 {
		t.Errorf("addVictim: %d pairs, %d aware, %d unseen; want 20, 7, 1", r.Pairs, r.PairsAware, r.Unseen)
	}
}

// TestTracedReplicaEqualsScenarioBuild pins the traced pass's licence: the
// benchmark-assembled world with its wrappers must end with the same
// counters and the same suspicion state as the scenario.Build world, for the
// cluster stack and for flood.
func TestTracedReplicaEqualsScenarioBuild(t *testing.T) {
	for _, name := range []string{"field600", "flood100"} {
		full, _ := workloadByName(workloads, name)
		w := toy(full)
		for seed := int64(1); seed <= 3; seed++ {
			plain, err := runWorkload(w, runOpts{seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(w, runOpts{seed: seed, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Fingerprint != traced.Fingerprint {
				t.Errorf("%s seed %d: fingerprint %s (traced) != %s (scenario.Build)",
					name, seed, traced.Fingerprint, plain.Fingerprint)
			}
			for k, v := range plain.Layer {
				if traced.Layer[k] != v {
					t.Errorf("%s seed %d: %s = %v (traced) != %v (scenario.Build)", name, seed, k, traced.Layer[k], v)
				}
			}
			if len(traced.Spans) < 3 {
				t.Errorf("%s seed %d: span table has %d rows", name, seed, len(traced.Spans))
			}
		}
	}
}

// TestManifestMatchesDeclarations checks that every metric and workload the
// harness knows is declared in BENCHMARK.json and vice versa, with the same
// unit, direction and bound, and that every name is well-formed.
func TestManifestMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	compare := func(section string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness declares %d", section, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			checkName(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s",
					section, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries a bound", d.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v declared, want equal and in (0, 0.25]", d.Name, g.Bound, d.Bound)
			}
		}
	}
	var universal []metricDef
	for _, d := range endToEnd {
		if d.Universal {
			universal = append(universal, d)
		}
	}
	compare("end_to_end", file.EndToEnd, universal, true)
	compare("per_layer", file.PerLayer, layerMetrics(), false)

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if g := file.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, g.Name, g.Why, w.name, w.why)
		}
		if n := len(w.why); n == 0 || n > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name, n)
		}
	}
	if strings.Join(file.Command, " ") != "go run ./bench" || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v; want go run ./bench, [bench]", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d end-to-end, %d bytes: over BENCHMARK.json's limits", len(file.PerLayer), len(file.EndToEnd), len(data))
	}
}
