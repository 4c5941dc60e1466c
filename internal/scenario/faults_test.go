package scenario

import (
	"testing"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Fault-injection suite: scenarios nastier than the happy path, checking
// that the stack degrades the way the paper's analysis predicts and always
// recovers structurally.

// TestLossBurst hits the whole network with a 90%-loss burst for two full
// epochs, then restores a clean channel. The FDS may mis-detect during the
// burst (the analysis says it will: p=0.9 is off the paper's charts), but
// after restoration every false suspicion must be rescinded and every real
// crash known.
func TestLossBurst(t *testing.T) {
	w := Build(Config{Seed: 51, Nodes: 60, FieldSide: 280, LossProb: 0})
	timing := w.Config().Timing
	w.RunEpochs(3)
	victim := w.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 1)[0]

	// The burst is injected by swapping per-link loss on every pair via
	// the medium's global silence of... simplest: use per-link overrides
	// on the victim era is not available, so emulate with Silence toggling
	// is per-host. Instead rebuild: the medium's LossProb is fixed at
	// build time, so the burst is modeled by silencing a random third of
	// hosts for two epochs — a correlated outage.
	var muted []wire.NodeID
	for i, id := range w.NodeIDs() {
		if i%3 == 0 && id != victim {
			muted = append(muted, id)
		}
	}
	w.Kernel.At(timing.EpochStart(4), func() {
		for _, id := range muted {
			w.Medium.Silence(id, true)
		}
	})
	w.Kernel.At(timing.EpochStart(6), func() {
		for _, id := range muted {
			w.Medium.Silence(id, false)
		}
	})
	w.RunEpochs(14)

	aware, operational := w.Completeness(victim)
	if aware != operational {
		t.Errorf("victim %v: %d/%d aware after the burst cleared", victim, aware, operational)
	}
	if fs := w.FalseSuspicions(); len(fs) != 0 {
		t.Errorf("%d false suspicions never rescinded after the burst", len(fs))
	}
}

// TestMassCrash kills a third of the field at once. A victim whose entire
// cluster died with it is fundamentally unobservable by the paper's design
// (only a node's own cluster monitors it), so the completeness requirement
// applies exactly to victims with at least one surviving co-member.
func TestMassCrash(t *testing.T) {
	w := Build(Config{Seed: 52, Nodes: 60, FieldSide: 280, LossProb: 0.1})
	timing := w.Config().Timing
	victims := w.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 20)

	// Record each victim's cluster co-members just before the crash wave.
	coMembers := make(map[wire.NodeID][]wire.NodeID)
	w.Kernel.At(timing.EpochStart(3)+timing.Interval/2-1, func() {
		for _, v := range victims {
			vv := w.Cluster(v).View()
			ms := append([]wire.NodeID(nil), vv.Members...)
			if !vv.IsMember(vv.CH) {
				ms = append(ms, vv.CH)
			}
			coMembers[v] = ms
		}
	})
	w.RunEpochs(14)

	for _, v := range victims {
		survivingWitness := false
		for _, m := range coMembers[v] {
			if m != v && w.Host(m) != nil && !w.Host(m).Crashed() {
				survivingWitness = true
				break
			}
		}
		aware, operational := w.Completeness(v)
		if survivingWitness && aware != operational {
			t.Errorf("victim %v (witnessed): %d/%d aware", v, aware, operational)
		}
		if !survivingWitness && aware != 0 {
			t.Logf("victim %v: whole cluster died, yet %d hosts know (harmless)", v, aware)
		}
	}
	// The surviving structure must be functional.
	c := w.Census()
	if c.Clusterheads == 0 {
		t.Error("no clusters left")
	}
	if c.Unmarked > 2 {
		t.Errorf("%d survivors still unadmitted", c.Unmarked)
	}
}

// TestRollingCrashes kills one host per epoch for ten epochs.
func TestRollingCrashes(t *testing.T) {
	w := Build(Config{Seed: 53, Nodes: 50, FieldSide: 250, LossProb: 0.1})
	timing := w.Config().Timing
	var victims []wire.NodeID
	for e := 3; e < 13; e++ {
		victims = append(victims, w.CrashRandomAt(timing.EpochStart(wire.Epoch(e))+timing.Interval/2, 1)...)
	}
	w.RunEpochs(17)
	for _, v := range victims {
		aware, operational := w.Completeness(v)
		if aware != operational {
			t.Errorf("victim %v: %d/%d aware", v, aware, operational)
		}
	}
}

// TestReplenishmentUnderFire deploys fresh hosts while crashes are ongoing;
// newcomers must be admitted and must learn the full failure history.
func TestReplenishmentUnderFire(t *testing.T) {
	w := Build(Config{Seed: 54, Nodes: 40, FieldSide: 240, LossProb: 0.1})
	timing := w.Config().Timing
	victims := w.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 5)
	var fresh []wire.NodeID
	for i := 0; i < 5; i++ {
		pos := geo.Point{X: 40 + 40*float64(i), Y: 120}
		fresh = append(fresh, w.DeployAt(timing.EpochStart(5)+sim.Time(i+1), pos))
	}
	w.RunEpochs(16)

	for _, id := range fresh {
		if !w.Cluster(id).View().Marked {
			t.Errorf("replenishment host %v never admitted", id)
			continue
		}
		for _, v := range victims {
			if !w.Detector(id).IsSuspected(v) {
				t.Errorf("newcomer %v never learned of pre-deployment failure %v", id, v)
			}
		}
	}
}

// TestGatewayAttrition repeatedly kills exactly the gateway nodes and checks
// the backbone keeps healing (backup gateways, re-registration, border
// relays).
func TestGatewayAttrition(t *testing.T) {
	w := Build(Config{Seed: 55, Nodes: 70, FieldSide: 350, LossProb: 0.05})
	timing := w.Config().Timing
	w.RunEpochs(3)

	// Kill up to three current gateways.
	killed := 0
	for _, id := range w.NodeIDs() {
		cl := w.Cluster(id)
		if cl.Marked() && !cl.IsCH() && cl.IsGW() && killed < 3 {
			w.CrashAt(timing.EpochStart(3)+timing.Interval/2, id)
			killed++
		}
	}
	if killed == 0 {
		t.Skip("no gateways in this layout")
	}
	// Then a regular member crash whose report must still traverse.
	victim := w.CrashRandomAt(timing.EpochStart(5)+timing.Interval/2, 1)[0]
	w.RunEpochs(12)
	aware, operational := w.Completeness(victim)
	if aware != operational {
		t.Errorf("victim %v: %d/%d aware after gateway attrition", victim, aware, operational)
	}
}

// TestAsymmetricOutage severs one direction of a CH's links to half its
// cluster for several epochs: detection rule condition 2 (digest evidence)
// must prevent false detections while the members still hear the CH.
func TestAsymmetricOutage(t *testing.T) {
	w := Build(Config{Seed: 56, Nodes: 30, FieldSide: 200, LossProb: 0})
	w.RunEpochs(2)
	var ch wire.NodeID
	for _, id := range w.NodeIDs() {
		if w.Cluster(id).View().IsCH {
			ch = id
			break
		}
	}
	members := w.Cluster(ch).View().Members
	cut := 0
	for _, m := range members {
		if m != ch && cut < len(members)/2 {
			w.Medium.SetLinkLoss(m, ch, 1.0) // member -> CH dead, CH -> member fine
			cut++
		}
	}
	w.RunEpochs(8)
	if fs := w.FalseSuspicions(); len(fs) != 0 {
		t.Errorf("asymmetric outage produced false suspicions: %v", fs)
	}
}

// TestDeterministicUnderFaults re-runs a heavy scenario twice and demands
// bit-identical message statistics.
func TestDeterministicUnderFaults(t *testing.T) {
	run := func() (int64, int) {
		w := Build(Config{Seed: 57, Nodes: 50, FieldSide: 260, LossProb: 0.25})
		timing := w.Config().Timing
		w.CrashRandomAt(timing.EpochStart(2)+timing.Interval/2, 6)
		w.RunEpochs(10)
		var tx int64
		for k, v := range w.MessageCounts() {
			if len(k) > 3 && k[:3] == "tx:" {
				tx += v
			}
		}
		return tx, len(w.FalseSuspicions())
	}
	tx1, fs1 := run()
	tx2, fs2 := run()
	if tx1 != tx2 || fs1 != fs2 {
		t.Errorf("runs diverged: (%d,%d) vs (%d,%d)", tx1, fs1, tx2, fs2)
	}
}
