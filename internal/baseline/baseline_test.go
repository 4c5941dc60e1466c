package baseline

import (
	"slices"
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// testParams is the setting the in-package tests run every detector with.
func testParams() Params {
	return Params{
		Interval:     sim.Time(time.Second),
		SuspectAfter: sim.Time(5 * time.Second),
		TTL:          8,
		RelayJitter:  sim.Time(5 * time.Millisecond),
	}
}

// line returns n positions spaced 80 m apart (a multi-hop chain).
func line(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 80}
	}
	return pts
}

// clique returns n mutually-in-range positions.
func clique(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%5) * 10, Y: float64(i/5) * 10}
	}
	return pts
}

type gossipWorld struct {
	kernel *sim.Kernel
	medium *radio.Medium
	hosts  []*node.Host
	dets   []Detector
}

func buildGossip(t *testing.T, seed int64, lossProb float64, pts []geo.Point) *gossipWorld {
	t.Helper()
	k := sim.New(seed)
	m := radio.New(k, radio.Defaults(lossProb))
	w := &gossipWorld{kernel: k, medium: m}
	for i, pos := range pts {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		g := newGossip(testParams())
		h.Use(g)
		w.hosts = append(w.hosts, h)
		w.dets = append(w.dets, g)
		h.Boot()
	}
	return w
}

func buildFlood(t *testing.T, seed int64, lossProb float64, pts []geo.Point) *gossipWorld {
	t.Helper()
	k := sim.New(seed)
	m := radio.New(k, radio.Defaults(lossProb))
	w := &gossipWorld{kernel: k, medium: m}
	for i, pos := range pts {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		f := newFlood(testParams())
		h.Use(f)
		w.hosts = append(w.hosts, h)
		w.dets = append(w.dets, f)
		h.Boot()
	}
	return w
}

func TestGossipDetectsCrash(t *testing.T) {
	w := buildGossip(t, 1, 0, clique(6))
	// Let membership propagate, crash n3, then wait past SuspectAfter.
	w.kernel.RunUntil(sim.Time(3 * time.Second))
	w.hosts[2].Crash()
	w.kernel.RunUntil(sim.Time(12 * time.Second))
	for i, d := range w.dets {
		if i == 2 {
			continue
		}
		if !d.IsSuspected(3) {
			t.Errorf("node %d does not suspect the crashed n3", i+1)
		}
		if got := d.KnownFailed(); len(got) != 1 || got[0] != 3 {
			t.Errorf("node %d KnownFailed = %v", i+1, got)
		}
	}
}

func TestGossipNoFalseSuspicionsWithoutLoss(t *testing.T) {
	w := buildGossip(t, 2, 0, clique(8))
	w.kernel.RunUntil(sim.Time(30 * time.Second))
	for i, d := range w.dets {
		if got := d.KnownFailed(); len(got) != 0 {
			t.Errorf("node %d suspects %v with no crashes", i+1, got)
		}
	}
}

func TestGossipMultiHopPropagation(t *testing.T) {
	// Gossip merges tables, so counters travel multi-hop along a chain.
	w := buildGossip(t, 3, 0, line(6))
	w.kernel.RunUntil(sim.Time(20 * time.Second))
	g := w.dets[5].(*Gossip)
	if g.KnownPopulation() != 6 {
		t.Errorf("chain end knows %d hosts, want 6", g.KnownPopulation())
	}
	if len(w.dets[5].KnownFailed()) != 0 {
		t.Errorf("false suspicions on a healthy chain: %v", w.dets[5].KnownFailed())
	}
}

func TestGossipNeverHeardNotSuspected(t *testing.T) {
	w := buildGossip(t, 4, 0, clique(3))
	w.kernel.RunUntil(sim.Time(2 * time.Second))
	if w.dets[0].IsSuspected(99) {
		t.Error("suspecting a host never heard of")
	}
}

func TestFloodDetectsCrash(t *testing.T) {
	w := buildFlood(t, 5, 0, line(5))
	w.kernel.RunUntil(sim.Time(3 * time.Second))
	w.hosts[0].Crash() // crash one end of the chain
	w.kernel.RunUntil(sim.Time(12 * time.Second))
	// The far end (4 hops away) must suspect it.
	if !w.dets[4].IsSuspected(1) {
		t.Error("far end does not suspect the crashed chain head")
	}
}

func TestFloodReachesWholeChain(t *testing.T) {
	w := buildFlood(t, 6, 0, line(6))
	w.kernel.RunUntil(sim.Time(5 * time.Second))
	for i, d := range w.dets {
		f := d.(*Flood)
		if f.KnownPopulation() < 6 {
			t.Errorf("node %d heard only %d origins, want 6", i+1, f.KnownPopulation())
		}
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	p := testParams()
	p.TTL = 2 // origin + one relay: reaches 2 hops
	k := sim.New(7)
	m := radio.New(k, radio.Defaults(0))
	var dets []*Flood
	for i, pos := range line(5) {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		f := newFlood(p)
		h.Use(f)
		dets = append(dets, f)
		h.Boot()
	}
	k.RunUntil(sim.Time(5 * time.Second))
	// Node 4 is 3 hops from node 1: out of TTL reach.
	if dets[3].KnownPopulation() >= 5 {
		t.Error("TTL=2 should not cover a 3-hop spread")
	}
	if dets[1].KnownPopulation() < 3 {
		t.Errorf("2nd node should hear at least its 2-hop vicinity, got %d", dets[1].KnownPopulation())
	}
}

func TestFloodMessageCostScalesWithPopulation(t *testing.T) {
	// The core scalability point: flooding transmissions grow superlinearly
	// with population (every node relays every heartbeat).
	count := func(n int) int64 {
		k := sim.New(8)
		m := radio.New(k, radio.Defaults(0))
		for i, pos := range clique(n) {
			h := node.New(k, m, wire.NodeID(i+1), pos)
			h.Use(newFlood(testParams()))
			h.Boot()
		}
		k.RunUntil(sim.Time(5 * time.Second))
		return m.Sent(wire.KindFloodHeartbeat)
	}
	small, large := count(5), count(20)
	if large < 10*small {
		t.Errorf("flooding cost grew only %dx (%d -> %d) for 4x population; want superlinear",
			large/small, small, large)
	}
}

func TestGossipDetectionUnderLoss(t *testing.T) {
	w := buildGossip(t, 9, 0.2, clique(8))
	w.kernel.RunUntil(sim.Time(3 * time.Second))
	w.hosts[4].Crash()
	w.kernel.RunUntil(sim.Time(20 * time.Second))
	for i, d := range w.dets {
		if i == 4 {
			continue
		}
		if !d.IsSuspected(5) {
			t.Errorf("node %d missed the crash at p=0.2", i+1)
		}
	}
}

// TestConfigValidation: New is the one place Params are checked.
func TestConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		det  string
		edit func(*Params)
	}{
		{"zero interval", "gossip", func(p *Params) { p.Interval = 0 }},
		{"tight suspect", "gossip", func(p *Params) { p.SuspectAfter = p.Interval }},
		{"tight suspect", "swim", func(p *Params) { p.SuspectAfter = 2*p.Interval - 1 }},
		{"zero ttl", "flood", func(p *Params) { p.TTL = 0 }},
		{"zero interval", "flood", func(p *Params) { p.Interval = 0 }},
	} {
		p := testParams()
		c.edit(&p)
		if d, err := New(c.det, p); err == nil {
			t.Errorf("%s %s: New = %T, want an error", c.det, c.name, d)
		}
	}
	// TTL 0 is only an error where TTL is read.
	p := testParams()
	p.TTL = 0
	if _, err := New("gossip", p); err != nil {
		t.Errorf("gossip with TTL 0: %v", err)
	}
}

// TestLivenessQueriesEveryDetector holds every registered detector to the
// shared verdict semantics on a dense field where two hosts fall silent.
func TestLivenessQueriesEveryDetector(t *testing.T) {
	const n = 6
	victims := []wire.NodeID{5, 2}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			k := sim.New(21)
			m := radio.New(k, radio.Defaults(0))
			var hosts []*node.Host
			var dets []Detector
			for i, pos := range clique(n) {
				h := node.New(k, m, wire.NodeID(i+1), pos)
				d, err := New(name, testParams())
				if err != nil {
					t.Fatal(err)
				}
				h.Use(d)
				hosts = append(hosts, h)
				dets = append(dets, d)
				h.Boot()
			}
			check := func(when string) {
				for i, d := range dets {
					if hosts[i].Crashed() {
						continue
					}
					self := wire.NodeID(i + 1)
					if d.IsSuspected(99) {
						t.Errorf("%s: node %d suspects a host it never heard of", when, self)
					}
					var want []wire.NodeID
					for id := wire.NodeID(1); id <= n; id++ {
						if d.IsSuspected(id) {
							want = append(want, id)
						}
					}
					got := d.KnownFailed()
					if !slices.Equal(got, want) {
						t.Errorf("%s: node %d KnownFailed = %v, IsSuspected says %v", when, self, got, want)
					}
					if slices.Contains(got, self) {
						t.Errorf("%s: node %d lists itself in KnownFailed", when, self)
					}
				}
			}
			k.RunUntil(sim.Time(4 * time.Second))
			check("healthy")
			for _, v := range victims {
				hosts[v-1].Crash()
			}
			k.RunUntil(k.Now() + testParams().SuspectAfter + 2*testParams().Interval)
			check("after crash")
			if name == "swim" {
				return // verdicts come from probe timeouts, not silence
			}
			for i, d := range dets {
				for _, v := range victims {
					if !hosts[i].Crashed() && !d.IsSuspected(v) {
						t.Errorf("node %d does not suspect node %d after more than SuspectAfter of silence", i+1, v)
					}
				}
			}
		})
	}
}
