package mobility

import (
	"testing"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

func walkerCfg(side float64, speed float64) Config {
	return Config{
		Field: geo.NewRect(side, side),
		Speed: speed,
		Pause: sim.Time(2 * time.Second),
	}
}

func TestWalkerStaysInFieldAndMoves(t *testing.T) {
	k := sim.New(1)
	m := radio.New(k, radio.Defaults(0))
	field := geo.NewRect(300, 300)
	h := node.New(k, m, 1, geo.Point{X: 150, Y: 150})
	w := New(walkerCfg(300, 5))
	h.Use(w)
	h.Boot()

	last := h.Pos()
	moved := false
	for i := 0; i < 600; i++ {
		k.RunUntil(sim.Time(i+1) * sim.Time(time.Second))
		p := h.Pos()
		if !field.Contains(p) {
			t.Fatalf("host left the field: %v", p)
		}
		if p != last {
			// Per-step displacement must respect the speed limit.
			if d := p.Dist(last); d > 5.0+1e-9 {
				t.Fatalf("hop of %.2f m exceeds speed", d)
			}
			moved = true
		}
		last = p
	}
	if !moved {
		t.Fatal("host never moved")
	}
	if w.Traveled() < 100 {
		t.Errorf("traveled only %.1f m in 10 min at 5 m/s", w.Traveled())
	}
}

func TestCrashedHostStopsMoving(t *testing.T) {
	k := sim.New(2)
	m := radio.New(k, radio.Defaults(0))
	h := node.New(k, m, 1, geo.Point{X: 10, Y: 10})
	h.Use(New(walkerCfg(200, 10)))
	h.Boot()
	k.RunUntil(sim.Time(30 * time.Second))
	h.Crash()
	frozen := h.Pos()
	k.RunUntil(sim.Time(90 * time.Second))
	if h.Pos() != frozen {
		t.Error("crashed host kept walking")
	}
}

// TestMobileFieldKeepsDetecting runs the full stack with slowly mobile
// members: clusters must keep re-forming and a real crash must still be
// detected and disseminated, while accuracy damage (transient false
// detections from hosts wandering out of range) is repaired by rescission.
func TestMobileFieldKeepsDetecting(t *testing.T) {
	k := sim.New(3)
	m := radio.New(k, radio.Defaults(0.05))
	timing := cluster.DefaultTiming()
	field := geo.NewRect(320, 320)
	const n = 35
	var hosts []*node.Host
	var fdss []*fds.Protocol
	for i := 0; i < n; i++ {
		h := node.New(k, m, wire.NodeID(i+1), geo.UniformInRect(k.Rand(), field))
		cl := cluster.New(cluster.Config{Timing: timing})
		f := fds.New(fds.DefaultConfig(timing), cl)
		fw := intercluster.New(intercluster.DefaultConfig(timing), cl, f)
		h.Use(cl)
		h.Use(f)
		h.Use(fw)
		// 1 m/s: a host crosses ~10 m per heartbeat interval — slow
		// migration, the regime the paper's "sound clustering will
		// support cluster stability" remark targets.
		h.Use(New(Config{Field: field, Speed: 1, Pause: sim.Time(5 * time.Second)}))
		hosts = append(hosts, h)
		fdss = append(fdss, f)
	}
	for _, h := range hosts {
		h.Boot()
	}

	victim := wire.NodeID(17)
	k.At(timing.EpochStart(4)+timing.Interval/2, func() { hosts[victim-1].Crash() })
	k.RunUntil(timing.EpochStart(16))

	aware, operational := 0, 0
	for i, f := range fdss {
		if hosts[i].Crashed() {
			continue
		}
		operational++
		if f.IsSuspected(victim) {
			aware++
		}
	}
	if aware < operational-2 {
		t.Errorf("only %d/%d mobile hosts learned of the crash", aware, operational)
	}

	// Outstanding false suspicions must be limited to in-flight churn.
	stale := 0
	for i, f := range fdss {
		if hosts[i].Crashed() {
			continue
		}
		for _, s := range f.KnownFailed() {
			if s != victim && !hosts[s-1].Crashed() {
				stale++
			}
		}
	}
	if stale > 3*operational {
		t.Errorf("excessive stale suspicions under slow mobility: %d", stale)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero":       {},
		"no speed":   {Field: geo.NewRect(10, 10)},
		"zero field": {Speed: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			New(cfg)
		}()
	}
}
