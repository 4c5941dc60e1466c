// Detector conformance: one suite, every Detector implementation. The
// worlds are assembled by internal/scenario (an external test package, so
// no import cycle), which is also how production experiments compose the
// stacks — the suite exercises the same seam they do.
package baseline_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"clusterfds/internal/baseline"
	"clusterfds/internal/geo"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// conformanceWorld builds a small dense field (everyone in radio range) so
// every detector — including the one-hop-only ones — can see the whole
// population.
func conformanceWorld(seed int64, stack scenario.Stack) *scenario.World {
	return scenario.Build(scenario.Config{
		Seed:      seed,
		Nodes:     8,
		FieldSide: 50,
		Stack:     stack,
	})
}

func forEachStack(t *testing.T, body func(t *testing.T, stack scenario.Stack)) {
	for _, stack := range scenario.Stacks() {
		t.Run(stack.String(), func(t *testing.T) { body(t, stack) })
	}
}

// Eventual detection: after a crash and enough quiet time, every survivor
// suspects the victim and reports it in KnownFailed.
func TestConformanceEventualDetection(t *testing.T) {
	forEachStack(t, func(t *testing.T, stack scenario.Stack) {
		w := conformanceWorld(1, stack)
		timing := w.Config().Timing
		victim := w.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 1)[0]
		w.RunEpochs(12)
		for _, id := range w.NodeIDs() {
			if id == victim {
				continue
			}
			if !w.Detector(id).IsSuspected(victim) {
				t.Errorf("node %d does not suspect crashed node %d", id, victim)
			}
			if kf := w.Detector(id).KnownFailed(); len(kf) != 1 || kf[0] != victim {
				t.Errorf("node %d KnownFailed = %v, want [%d]", id, kf, victim)
			}
		}
	})
}

// No self-suspicion, ever — not on a healthy run and not after crashes.
func TestConformanceNoSelfSuspicion(t *testing.T) {
	forEachStack(t, func(t *testing.T, stack scenario.Stack) {
		w := conformanceWorld(2, stack)
		timing := w.Config().Timing
		w.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 2)
		w.RunEpochs(10)
		for _, id := range w.NodeIDs() {
			if w.Host(id).Crashed() {
				continue
			}
			if w.Detector(id).IsSuspected(id) {
				t.Errorf("node %d suspects itself", id)
			}
			for _, kf := range w.Detector(id).KnownFailed() {
				if kf == id {
					t.Errorf("node %d lists itself in KnownFailed", id)
				}
			}
		}
	})
}

// airHash listens on the medium at the centre of the conformance field,
// which lies inside one radio range and loses nothing, so it hears every
// transmission. It hashes each one's sender and wire bytes (wire.Encode, as
// conformance's recordingTransport records a send) in reception order.
type airHash struct {
	at  geo.Point
	sum hash.Hash64
	n   int
}

func (a *airHash) ID() wire.NodeID   { return 1000 }
func (a *airHash) Pos() geo.Point    { return a.at }
func (a *airHash) Operational() bool { return true }
func (a *airHash) Deliver(m wire.Message, from wire.NodeID) {
	b := wire.Encode(m)
	a.sum.Write(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(from)), uint32(len(b))))
	a.sum.Write(b)
	a.n++
}

// KnownFailed is sorted ascending and bit-identical across same-seed
// rebuilds, for several seeds, and so are the bytes every host sent: a
// detector that builds a message in map order changes no verdict, only the
// wire.
func TestConformanceKnownFailedSortedAndDeterministic(t *testing.T) {
	forEachStack(t, func(t *testing.T, stack scenario.Stack) {
		for seed := int64(3); seed <= 5; seed++ {
			run := func() (map[wire.NodeID][]wire.NodeID, *airHash) {
				w := conformanceWorld(seed, stack)
				air := &airHash{at: geo.Point{X: 25, Y: 25}, sum: fnv.New64a()}
				w.Medium.Attach(air)
				timing := w.Config().Timing
				w.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 3)
				w.RunEpochs(12)
				out := make(map[wire.NodeID][]wire.NodeID)
				for _, id := range w.NodeIDs() {
					if !w.Host(id).Crashed() {
						out[id] = w.Detector(id).KnownFailed()
					}
				}
				return out, air
			}
			a, airA := run()
			b, airB := run()
			if airA.n == 0 || airA.n != airB.n || airA.sum.Sum64() != airB.sum.Sum64() {
				t.Errorf("seed %d: bytes on the air differ across rebuilds: %d transmissions hashing to %x vs %d to %x",
					seed, airA.n, airA.sum.Sum64(), airB.n, airB.sum.Sum64())
			}
			for _, id := range []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8} {
				ka, inA := a[id]
				kb, inB := b[id]
				if inA != inB || fmt.Sprint(ka) != fmt.Sprint(kb) {
					t.Errorf("seed %d node %d: KnownFailed differs across rebuilds: %v vs %v",
						seed, id, ka, kb)
				}
				for i := 1; i < len(ka); i++ {
					if ka[i-1] >= ka[i] {
						t.Errorf("seed %d node %d: KnownFailed not strictly ascending: %v", seed, id, ka)
					}
				}
			}
		}
	})
}

// Rescission on recovery: a node silenced longer than the suspicion timeout
// is (rightly) suspected; once it transmits again, every detector clears the
// suspicion. All stacks support this — a muted host's timers keep running,
// so its sequence numbers and counters jump forward on recovery.
func TestConformanceRescissionOnRecovery(t *testing.T) {
	forEachStack(t, func(t *testing.T, stack scenario.Stack) {
		w := conformanceWorld(6, stack)
		timing := w.Config().Timing
		victim := wire.NodeID(8) // high NID: never the cluster stack's CH here
		w.Kernel.At(timing.EpochStart(3), func() { w.Medium.Silence(victim, true) })
		w.RunEpochs(10) // 7 muted epochs > the 4-interval suspicion timeout
		suspectedBy := 0
		for _, id := range w.NodeIDs() {
			if id != victim && w.Detector(id).IsSuspected(victim) {
				suspectedBy++
			}
		}
		if suspectedBy == 0 {
			t.Fatalf("nobody suspected node %d after %s of transmit silence",
				victim, time.Duration(7*timing.Interval))
		}
		w.Medium.Silence(victim, false)
		w.RunEpochs(16) // RunEpochs is absolute: six more intervals
		for _, id := range w.NodeIDs() {
			if id == victim {
				continue
			}
			if w.Detector(id).IsSuspected(victim) {
				t.Errorf("node %d still suspects node %d %s after it recovered",
					id, victim, time.Duration(6*timing.Interval))
			}
			for _, kf := range w.Detector(id).KnownFailed() {
				if kf == victim {
					t.Errorf("node %d still lists recovered node %d in KnownFailed", id, victim)
				}
			}
		}
	})
}

// The registry surface: every published name constructs, unknown names
// error, and the scenario stack names for the flat detectors round-trip
// through it.
func TestConformanceRegistryNames(t *testing.T) {
	params := baseline.Params{
		Interval:     sim.Time(time.Second),
		SuspectAfter: sim.Time(4 * time.Second),
		TTL:          8,
	}
	for _, name := range baseline.Names() {
		d, err := baseline.New(name, params)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
		} else if d == nil {
			t.Errorf("New(%q) returned a nil detector", name)
		}
		if _, err := scenario.ParseStack(name); err != nil {
			t.Errorf("ParseStack(%q): %v", name, err)
		}
	}
	if _, err := baseline.New("no-such-detector", params); err == nil {
		t.Error("New accepted an unknown name")
	}
	if _, err := scenario.ParseStack("no-such-detector"); err == nil {
		t.Error("ParseStack accepted an unknown name")
	}
}
