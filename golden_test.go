package clusterfds_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/par"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// goldenRunHash pins the byte-exact behavior of a full 100-node cluster-FDS
// run: every trace event (in emission order) plus the complete metrics
// export (JSON and CSV) is folded into one SHA-256. The constant was
// committed BEFORE the PR 4 dense-state/heap/decode rewrite, so the rewrite
// must reproduce the pre-rewrite run bit for bit — any change to event
// ordering, detection outcomes, message traffic, or metric values shows up
// as a hash mismatch. Update this constant only for changes that are MEANT
// to alter simulation behavior, and say so in the commit message.
//
// Re-pinned once since, by PR 17, which changed report traffic on purpose:
// one author per rescission, proof-of-life tombstones, one-adjacency
// catch-up, cause tokens in the report events (CHANGES.md has the reason).
// Re-pinned again when border nodes stopped relaying two-hop toward a
// cluster that a direct gateway already serves: fewer report transmissions
// re-deal every later loss draw.
const goldenRunHash = "2a0cb65bac40c6d753914f03e5e5091592b969523f9839f5448510108a0a90b2"

// hashSink streams trace events into a hash without retaining them.
type hashSink struct {
	h hash.Hash
	n int
}

func (s *hashSink) Emit(e trace.Event) {
	s.n++
	fmt.Fprintf(s.h, "%d|%s|%d|%s\n", int64(e.At), e.Type, e.Node, e.Detail)
}

// TestGoldenTraceHash is the determinism regression gate for hot-path
// rewrites (satellite of PR 4). It exercises the whole stack — clustering,
// FDS epochs, crashes mid-epoch, peer forwarding, rescissions, metrics —
// and requires the combined trace+metrics digest to be stable.
func TestGoldenTraceHash(t *testing.T) {
	sink := &hashSink{h: sha256.New()}
	w := scenario.Build(scenario.Config{
		Seed:      20260806,
		Nodes:     100,
		FieldSide: 500,
		LossProb:  0.1,
		Stack:     scenario.StackClusterFDS,
		Trace:     sink,
	})

	// Let clustering settle, then crash nodes in two waves so the run
	// includes detections, health updates, and takeover traffic.
	timing := w.Config().Timing
	crashA := sim.Time(3)*timing.Interval + sim.Time(200*time.Millisecond)
	crashB := sim.Time(6)*timing.Interval + sim.Time(700*time.Millisecond)
	w.CrashRandomAt(crashA, 3)
	w.CrashRandomAt(crashB, 2)
	w.RunEpochs(12)

	// Fold the full metrics export (both encodings) into the same digest so
	// counter/histogram/series regressions are caught too.
	snap := w.MetricsSnapshot()
	if err := snap.WriteJSON(sink.h); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := snap.WriteCSV(sink.h); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	// Fold in a stable summary of final detector state as seen by one
	// survivor, so suspicion outcomes are covered even if tracing of some
	// event type changes.
	var probe wire.NodeID
	for _, id := range w.Operational() {
		probe = id
		break
	}
	aware, operational := w.Completeness(probe)
	fmt.Fprintf(sink.h, "completeness|%d|%d|%d\n", probe, aware, operational)

	got := hex.EncodeToString(sink.h.Sum(nil))
	if sink.n == 0 {
		t.Fatal("trace sink saw zero events; scenario not wired to sink")
	}
	if got != goldenRunHash {
		t.Errorf("golden run hash changed:\n  got  %s\n  want %s\n(%d trace events) — the run is no longer byte-identical to the pre-rewrite behavior", got, goldenRunHash, sink.n)
	}
}

// goldenParallelHash pins the intra-replica parallel engine's canonical run:
// the same two-wave crash scenario as the legacy golden test, on the
// strip-partitioned engine (internal/par). The constant was computed at
// Workers=1 when the engine landed; the test reruns the scenario at 1,
// 2, and 4 workers and requires the SAME digest from each — so it gates both
// behavioral drift over time and worker-count divergence in one constant.
// Update it only for changes MEANT to alter the parallel engine's timeline
// (e.g. a different strip partition), and say so in the commit message.
// Re-pinned by PR 17 together with goldenRunHash, for the same reason, and
// again with it for the two-hop gap rule.
const goldenParallelHash = "30728f7f8859e097a3ffc10fa8617417bd81bd81846e2aa3a086c5ba36f5a799"

// TestGoldenParallelTraceHash is the parallel twin of TestGoldenTraceHash:
// clustering, FDS epochs, two crash waves, rescissions — drained by the
// conservative-window worker pool — must hash bit-identically at every
// worker count, and identically to the committed constant.
func TestGoldenParallelTraceHash(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := par.Build(par.Config{
			Seed:         20260806,
			Nodes:        200,
			FieldSide:    700,
			LossProb:     0.1,
			Workers:      workers,
			CollectTrace: true,
		})
		timing := cluster.DefaultTiming()
		p.CrashRandomAt(sim.Time(3)*timing.Interval+sim.Time(200*time.Millisecond), 3)
		p.CrashRandomAt(sim.Time(6)*timing.Interval+sim.Time(700*time.Millisecond), 2)
		p.RunEpochs(12)
		if got := p.TraceHash(); got != goldenParallelHash {
			t.Errorf("Workers=%d: parallel golden hash changed:\n  got  %s\n  want %s", workers, got, goldenParallelHash)
		}
	}
}

// TestRunEpochsToVersusMore pins the two engines' opposite readings of the
// same method name: scenario.World.RunEpochs(n) runs TO epoch n,
// par.Engine.RunEpochs(n) runs n MORE epochs. Both reject a negative count,
// which the world used to wrap into a silent no-op and the strip engine into
// a horizon at the end of time.
func TestRunEpochsToVersusMore(t *testing.T) {
	w := scenario.Build(scenario.Config{Seed: 1, Nodes: 10, FieldSide: 100})
	p := par.Build(par.Config{Seed: 1, Nodes: 10, FieldSide: 100})
	interval := w.Config().Timing.Interval
	for _, n := range []int{3, 5} {
		w.RunEpochs(n)
		p.RunEpochs(n)
	}
	if got, want := w.Kernel.Now(), 5*interval; got != want {
		t.Errorf("World after RunEpochs(3), RunEpochs(5): now = %d, want %d (epoch 5)", got, want)
	}
	if got, want := p.Now(), 8*interval; got != want {
		t.Errorf("par.Engine after RunEpochs(3), RunEpochs(5): now = %d, want %d (epoch 8)", got, want)
	}
	for name, run := range map[string]func(){
		"World":      func() { w.RunEpochs(-1) },
		"par.Engine": func() { p.RunEpochs(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.RunEpochs(-1) did not panic", name)
				}
			}()
			run()
		}()
	}
}
