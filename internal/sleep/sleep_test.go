package sleep

import (
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

type world struct {
	kernel *sim.Kernel
	medium *radio.Medium
	hosts  []*node.Host
	fdss   []*fds.Protocol
	sleeps []*Protocol
	timing cluster.Timing
	tracer *trace.Memory
}

func buildWorld(t *testing.T, seed int64, announce bool, positions []geo.Point) *world {
	t.Helper()
	k := sim.New(seed)
	tr := trace.NewMemory(trace.TypeDetect, trace.TypeViewUpdate)
	m := radio.New(k, radio.Defaults(0))
	w := &world{kernel: k, medium: m, timing: cluster.DefaultTiming(), tracer: tr}
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos, node.WithTrace(tr))
		cl := cluster.New(cluster.Config{Timing: w.timing})
		f := fds.New(fds.DefaultConfig(w.timing), cl)
		scfg := DefaultConfig()
		scfg.Announce = announce
		sl := New(scfg, cl)
		h.Use(cl)
		h.Use(f)
		h.Use(sl)
		w.hosts = append(w.hosts, h)
		w.fdss = append(w.fdss, f)
		w.sleeps = append(w.sleeps, sl)
		h.Boot()
	}
	return w
}

// star returns one cluster: node 1 center, rest on a ring.
func star(n int, radius float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pts[i] = geo.OnCircle(pts[0], radius, float64(i)*2*3.14159/float64(n-1))
	}
	return pts
}

func totalNaps(w *world) int {
	n := 0
	for _, s := range w.sleeps {
		n += s.Naps()
	}
	return n
}

func TestAnnouncedSleepCausesNoFalseDetections(t *testing.T) {
	w := buildWorld(t, 1, true, star(10, 60))
	w.kernel.RunUntil(w.timing.EpochStart(16))
	if totalNaps(w) == 0 {
		t.Fatal("nobody ever napped")
	}
	if n := w.tracer.Count(trace.TypeDetect); n != 0 {
		t.Errorf("%d detections with announced sleeping and p=0", n)
	}
	for i, f := range w.fdss {
		if got := f.KnownFailed(); len(got) != 0 {
			t.Errorf("node %d suspects %v", i+1, got)
		}
	}
}

func TestNaiveSleepCausesFalseDetections(t *testing.T) {
	w := buildWorld(t, 2, false, star(10, 60))
	w.kernel.RunUntil(w.timing.EpochStart(16))
	if totalNaps(w) == 0 {
		t.Fatal("nobody ever napped")
	}
	// The paper's warning, reproduced: naive sleepers get falsely
	// detected (and then rescinded on waking — churn, not permanence).
	if n := w.tracer.Count(trace.TypeDetect); n == 0 {
		t.Error("naive sleeping caused no false detections; the hazard is not being modeled")
	}
}

func TestSleepersSaveEnergy(t *testing.T) {
	run := func(announce bool, sleepAtAll bool) float64 {
		k := sim.New(3)
		m := radio.New(k, radio.Defaults(0))
		timing := cluster.DefaultTiming()
		for i, pos := range star(10, 60) {
			h := node.New(k, m, wire.NodeID(i+1), pos)
			cl := cluster.New(cluster.Config{Timing: timing})
			f := fds.New(fds.DefaultConfig(timing), cl)
			h.Use(cl)
			h.Use(f)
			if sleepAtAll {
				scfg := DefaultConfig()
				scfg.Announce = announce
				h.Use(New(scfg, cl))
			}
			h.Boot()
		}
		k.RunUntil(timing.EpochStart(16))
		return m.TotalEnergySpent()
	}
	withSleep := run(true, true)
	without := run(true, false)
	if withSleep >= without {
		t.Errorf("duty cycling saved no energy: %v vs %v", withSleep, without)
	}
}

func TestStructuralRolesNeverNap(t *testing.T) {
	w := buildWorld(t, 4, true, star(10, 60))
	w.kernel.RunUntil(w.timing.EpochStart(16))
	// The CH must never have napped; host 1 is the CH by lowest NID.
	if w.sleeps[0].Naps() != 0 {
		t.Error("the clusterhead napped")
	}
	if w.hosts[0].Asleep() {
		t.Error("CH asleep at the end")
	}
}

func TestSleeperCatchesUpAfterWaking(t *testing.T) {
	// A member crashes while another naps; the napper must learn of the
	// failure after waking (cumulative updates).
	w := buildWorld(t, 5, true, star(10, 60))
	// Find a host that naps early; with phase = NID mod 4 and period 4,
	// host h naps at epochs where (e + h) % 4 == 3.
	w.kernel.At(w.timing.EpochStart(5)+w.timing.Interval/2, func() { w.hosts[4].Crash() })
	w.kernel.RunUntil(w.timing.EpochStart(14))
	for i, f := range w.fdss {
		if i == 4 || w.hosts[i].Crashed() {
			continue
		}
		if !f.IsSuspected(5) {
			t.Errorf("node %d (napper or not) never learned of the crash", i+1)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil cluster: want panic")
		}
	}()
	New(DefaultConfig(), nil)
}
