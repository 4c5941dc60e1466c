//go:build !race

package baseline_test

import (
	"testing"

	"clusterfds/internal/scenario"
)

// TestFlatDetectorsSteadyStateAllocateNothing pins the flat detectors'
// steady state: on benchDetectorEpoch's dense 100-host field, once the
// population is discovered and every pool is warm, one epoch of any flat
// stack — ticks, sends, relays, responses, probes, timeouts — allocates
// nothing. A fresh message, closure or method value per send shows here
// before it shows as alloc_mb on flood100: at least one allocation per host
// per epoch, 100 or more here. The settle window is long because a lower
// layer's pool keeps taking a new block whenever its in-flight count reaches
// a new peak (the radio's transmission pool under query-response's and
// SWIM's reply bursts, up to epoch 17 on this seed); that is warm-up, not a
// per-message cost, and the five-epoch average absorbs any stragglers. The
// race detector instruments allocation, hence the build tag.
func TestFlatDetectorsSteadyStateAllocateNothing(t *testing.T) {
	for _, stack := range []scenario.Stack{
		scenario.StackAllPairs, scenario.StackFlood, scenario.StackGossip,
		scenario.StackQueryResponse, scenario.StackSWIM,
	} {
		t.Run(stack.String(), func(t *testing.T) {
			w := scenario.Build(scenario.Config{Seed: 1, Nodes: 100, FieldSide: 64, LossProb: 0.1, Stack: stack})
			epoch := 20
			w.RunEpochs(epoch)
			allocs := testing.AllocsPerRun(5, func() {
				epoch++
				w.RunEpochs(epoch)
			})
			if allocs != 0 {
				t.Errorf("%v: %v allocations per warm epoch, want 0", stack, allocs)
			}
		})
	}
}
