package scenario

import (
	"strings"
	"testing"
)

func smallMatrix() Matrix {
	return Matrix{
		Config:    Config{Seed: 42, Nodes: 16, FieldSide: 60},
		Stacks:    []Stack{StackGossip, StackSWIM},
		Scenarios: []ScenarioKind{ScenarioCrashWave, ScenarioPartition},
		Trials:    2,
	}
}

// The matrix's determinism contract: bit-identical TSV (hence hash) at any
// worker count.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	m := smallMatrix()
	m.Workers = 1
	serial := m.Run()
	m.Workers = 4
	parallel := m.Run()
	var a, b strings.Builder
	if err := serial.WriteTSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("TSV differs between workers=1 and workers=4:\n%s\nvs\n%s", a.String(), b.String())
	}
	if serial.Hash() != parallel.Hash() {
		t.Errorf("hash differs: %016x vs %016x", serial.Hash(), parallel.Hash())
	}
}

// Every cell of a dense small field must actually detect the crashes: the
// matrix is useless as a comparison if a detector scores zero because the
// harness never wired it up.
func TestMatrixCellsDetect(t *testing.T) {
	m := Matrix{
		Config:    Config{Seed: 7, Nodes: 12, FieldSide: 60},
		Scenarios: []ScenarioKind{ScenarioCrashWave},
		Trials:    2,
		Workers:   1,
	}
	r := m.Run()
	if len(r.Cells) != len(Stacks()) {
		t.Fatalf("got %d cells, want %d", len(r.Cells), len(Stacks()))
	}
	for _, c := range r.Cells {
		if got := c.Summary.Completeness.Mean(); got < 0.9 {
			t.Errorf("%s/%s completeness %.3f, want >= 0.9 on a 60 m clique",
				c.Scenario, c.Stack, got)
		}
		if c.Summary.LatencySeconds.N() == 0 {
			t.Errorf("%s/%s recorded no detection latencies", c.Scenario, c.Stack)
		}
	}
}

// Disruption scenarios must provoke mid-run false suspicions in the timeout
// baselines (the window exceeds SuspectAfter) and the detectors must rescind
// them once the disruption heals.
func TestMatrixDutySleepProvokesAndRescindsFalseSuspicions(t *testing.T) {
	m := Matrix{
		Config:    Config{Seed: 11, Nodes: 12, FieldSide: 60},
		Stacks:    []Stack{StackGossip, StackAllPairs},
		Scenarios: []ScenarioKind{ScenarioDutySleep},
		Crashes:   1,
		Trials:    2,
		Workers:   1,
	}
	r := m.Run()
	for _, c := range r.Cells {
		if c.Summary.MidFalseSuspicions == 0 {
			t.Errorf("%s/%s: sleep window longer than SuspectAfter provoked no mid-run false suspicions",
				c.Scenario, c.Stack)
		}
		if c.Summary.FalseSuspicions != 0 {
			t.Errorf("%s/%s: %d false suspicions persist after the sleepers woke; want rescission",
				c.Scenario, c.Stack, c.Summary.FalseSuspicions)
		}
	}
}
