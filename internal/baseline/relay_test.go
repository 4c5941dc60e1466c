package baseline_test

import (
	"testing"
	"time"

	"clusterfds/internal/baseline"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// TestFloodRelayPoolBounded pins that Flood's jittered relays reuse their
// records: on benchDetectorEpoch's 100-host field the relay records ever
// allocated, summed over all hosts, are the same after 40 epochs as after
// 10, so the pool holds what is in flight, not what was ever relayed. A host
// that crashes with relays armed sends none of them: the host's crash guard
// drops the timer, so its records stay out of the pool and it transmits
// nothing more.
func TestFloodRelayPoolBounded(t *testing.T) {
	w := scenario.Build(scenario.Config{Seed: 1, Nodes: 100, FieldSide: 64, LossProb: 0.1, Stack: scenario.StackFlood})
	made := func() (n int) {
		for _, id := range w.NodeIDs() {
			m, _ := baseline.RelayPool(w.Detector(id))
			n += m
		}
		return n
	}
	w.RunEpochs(10)
	at10 := made()
	t.Logf("relay records after 10 epochs: %d on %d hosts", at10, len(w.NodeIDs()))

	// Step to an instant where some host has a relay armed, and crash it.
	var victim wire.NodeID
	var armed int
	for now, end := w.Kernel.Now(), w.Kernel.Now()+sim.Time(10*time.Second); victim == 0; {
		if now += sim.Time(time.Millisecond); now > end {
			t.Fatal("no relay record was out of its pool in 10 s of flooding: a relay goes back to the pool while armed")
		}
		w.Run(now)
		for _, id := range w.NodeIDs() {
			if _, a := baseline.RelayPool(w.Detector(id)); a > 0 {
				victim, armed = id, a
				break
			}
		}
	}
	w.Host(victim).Crash()
	spent := w.Medium.EnergySpent(victim)

	w.RunEpochs(40)
	if at40 := made(); at40 != at10 {
		t.Errorf("relay records: %d after 10 epochs, %d after 40; the pool grows with the run", at10, at40)
	}
	if got := w.Medium.EnergySpent(victim); got != spent {
		t.Errorf("host %v crashed with %d relays armed, then spent %v more energy; a crashed host must send nothing",
			victim, armed, got-spent)
	}
	if _, a := baseline.RelayPool(w.Detector(victim)); a != armed {
		t.Errorf("host %v crashed with %d relays armed, %d after; a crashed host's relay ran", victim, armed, a)
	}
}
