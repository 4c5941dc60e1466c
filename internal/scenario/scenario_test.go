package scenario

import (
	"testing"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

func TestBuildClusterStack(t *testing.T) {
	w := Build(Config{Seed: 1, Nodes: 60, FieldSide: 500})
	w.RunEpochs(4)
	c := w.Census()
	if c.Clusterheads == 0 {
		t.Fatal("no clusters formed")
	}
	if c.Unmarked != 0 {
		t.Errorf("%d hosts unadmitted after 4 epochs with p=0", c.Unmarked)
	}
	if c.Members == 0 {
		t.Error("no ordinary members")
	}
	if len(w.NodeIDs()) != 60 {
		t.Errorf("NodeIDs = %d, want 60", len(w.NodeIDs()))
	}
}

func TestCrashDetectedAndDisseminated(t *testing.T) {
	w := Build(Config{Seed: 2, Nodes: 70, FieldSide: 350})
	victims := w.CrashRandomAt(w.Config().Timing.EpochStart(3)+w.Config().Timing.Interval/2, 2)
	if len(victims) != 2 {
		t.Fatalf("victims = %v", victims)
	}
	w.RunEpochs(9)
	for _, v := range victims {
		aware, operational := w.Completeness(v)
		if operational == 0 {
			t.Fatal("no operational hosts")
		}
		if aware != operational {
			t.Errorf("victim %v: only %d/%d operational hosts aware", v, aware, operational)
		}
		lats := w.DetectionLatencies(v)
		if len(lats) == 0 {
			t.Errorf("victim %v: no latency samples", v)
		}
		for _, l := range lats {
			if l <= 0 || l > 6*w.Config().Timing.Interval {
				t.Errorf("victim %v: implausible latency %v", v, l)
			}
		}
	}
	if fs := w.FalseSuspicions(); len(fs) != 0 {
		t.Errorf("false suspicions with p=0: %v", fs)
	}
}

// TestCrashWavesScheduledUpFrontAreDisjoint: two waves of k scheduled before
// the run crash 2k distinct hosts. A wave used to exclude only hosts whose
// crash had already fired, so a second up-front wave could name a victim of
// the first and then crash fewer hosts than it reported.
func TestCrashWavesScheduledUpFrontAreDisjoint(t *testing.T) {
	const k = 5
	for seed := int64(1); seed <= 40; seed++ {
		w := Build(Config{Seed: seed, Nodes: 20, FieldSide: 200})
		timing := w.Config().Timing
		first := w.CrashRandomAt(timing.EpochStart(1)+timing.Interval/2, k)
		second := w.CrashRandomAt(timing.EpochStart(2)+timing.Interval/2, k)
		w.RunEpochs(3)
		if crashed := 20 - len(w.Operational()); len(first) != k || len(second) != k || crashed != 2*k {
			t.Errorf("seed %d: waves %v and %v crashed %d hosts, want %d", seed, first, second, crashed, 2*k)
		}
	}
}

func TestGossipStack(t *testing.T) {
	// The detectors run at the cluster timing's 10 s period; a host never
	// heard is never suspected, so the victim dies after its first heartbeat.
	w := Build(Config{Seed: 3, Nodes: 30, FieldSide: 300, Stack: StackGossip})
	w.CrashAt(sim.Time(25*time.Second), 7)
	w.Run(sim.Time(300 * time.Second))
	aware, operational := w.Completeness(7)
	if aware != operational {
		t.Errorf("gossip: %d/%d aware", aware, operational)
	}
	if len(w.DetectionLatencies(7)) == 0 {
		t.Error("no latencies recorded")
	}
}

func TestFloodStack(t *testing.T) {
	// As in TestGossipStack, the victim dies after its first heartbeat.
	w := Build(Config{Seed: 4, Nodes: 30, FieldSide: 300, Stack: StackFlood})
	w.CrashAt(sim.Time(25*time.Second), 9)
	w.Run(sim.Time(300 * time.Second))
	aware, operational := w.Completeness(9)
	if aware != operational {
		t.Errorf("flood: %d/%d aware", aware, operational)
	}
	if w.MessageCounts()["tx:flood-heartbeat"] == 0 {
		t.Error("no flood heartbeats counted")
	}
}

func TestDeployAtReplenishes(t *testing.T) {
	w := Build(Config{Seed: 5, Nodes: 20, FieldSide: 250})
	tm := w.Config().Timing
	id := w.DeployAt(tm.EpochStart(3), geo.Point{X: 125, Y: 125})
	w.RunEpochs(7)
	h := w.Host(id)
	if h == nil {
		t.Fatal("deployed host missing")
	}
	v := w.Cluster(id).View()
	if !v.Marked {
		t.Error("replenishment host never admitted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, float64) {
		w := Build(Config{Seed: 77, Nodes: 40, FieldSide: 400, LossProb: 0.2})
		w.CrashRandomAt(w.Config().Timing.EpochStart(2), 3)
		w.RunEpochs(6)
		var total int64
		for _, v := range w.MessageCounts() {
			total += v
		}
		return total, w.TotalEnergySpent()
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 || e1 != e2 {
		t.Errorf("runs differ: (%d, %v) vs (%d, %v)", m1, e1, m2, e2)
	}
}

func TestAblationFlagsPropagate(t *testing.T) {
	w := Build(Config{
		Seed: 6, Nodes: 30, FieldSide: 300,
		DisablePeerForwarding: true,
		DisableBGWAssist:      true,
		DisableImplicitAcks:   true,
	})
	w.RunEpochs(3)
	// Smoke: the world still functions with all enhancements off.
	if c := w.Census(); c.Clusterheads == 0 {
		t.Error("no clusters with ablations enabled")
	}
}

func TestCensusPanicsForBaseline(t *testing.T) {
	w := Build(Config{Seed: 7, Nodes: 10, FieldSide: 200, Stack: StackGossip})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	w.Census()
}

func TestCrashAtUnknownHostPanics(t *testing.T) {
	w := Build(Config{Seed: 8, Nodes: 5, FieldSide: 100})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	w.CrashAt(sim.Time(time.Second), 999)
}

func TestStackString(t *testing.T) {
	if StackClusterFDS.String() != "cluster-fds" || StackGossip.String() != "gossip" || StackFlood.String() != "flood" {
		t.Error("stack names wrong")
	}
}

func TestOperationalTracksCrashes(t *testing.T) {
	w := Build(Config{Seed: 9, Nodes: 10, FieldSide: 200})
	w.CrashAt(w.Config().Timing.EpochStart(1), 4)
	w.RunEpochs(2)
	ops := w.Operational()
	if len(ops) != 9 {
		t.Errorf("operational = %d, want 9", len(ops))
	}
	for _, id := range ops {
		if id == wire.NodeID(4) {
			t.Error("crashed host listed as operational")
		}
	}
}

// TestBuildRunsClusterOnConfiguredTiming pins that Build hands its configured
// timing to the cluster layer, not only to the FDS and the forwarder: with any
// other schedule formation would run out of step with failure detection.
func TestBuildRunsClusterOnConfiguredTiming(t *testing.T) {
	timing := cluster.Timing{Thop: 40 * time.Millisecond, Interval: 5 * time.Second}
	w := Build(Config{Seed: 1, Nodes: 12, FieldSide: 200, Timing: timing})
	for _, id := range w.NodeIDs() {
		if got := w.Cluster(id).Timing(); got != timing {
			t.Fatalf("host %v: cluster timing %+v, want %+v", id, got, timing)
		}
	}
}
