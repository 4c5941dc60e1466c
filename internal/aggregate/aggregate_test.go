package aggregate

import (
	"math"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

func TestStat(t *testing.T) {
	var s Stat
	if s.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	for _, v := range []float64{3, -1, 7} {
		s.Add(v)
	}
	if s.Count != 3 || s.Sum != 9 || s.Min != -1 || s.Max != 7 {
		t.Errorf("stat = %+v", s)
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v", s.Mean())
	}

	var o Stat
	o.Add(100)
	s.Combine(o)
	if s.Count != 4 || s.Max != 100 {
		t.Errorf("combined = %+v", s)
	}
	var empty Stat
	s.Combine(empty)
	if s.Count != 4 {
		t.Error("combining empty changed the stat")
	}
	empty.Combine(s)
	if empty.Count != 4 {
		t.Error("combine into empty failed")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

// world bundles a full stack plus aggregation.
type world struct {
	kernel *sim.Kernel
	medium *radio.Medium
	hosts  []*node.Host
	aggs   []*Protocol
	timing cluster.Timing
}

// buildWorld places hosts; each host's reading is a fixed function of its
// NID: reading(i) = float64(i), so expected aggregates are exact.
func buildWorld(t *testing.T, seed int64, lossProb float64, positions []geo.Point) *world {
	t.Helper()
	k := sim.New(seed)
	m := radio.New(k, radio.Defaults(lossProb))
	w := &world{kernel: k, medium: m, timing: cluster.DefaultTiming()}
	for i, pos := range positions {
		id := wire.NodeID(i + 1)
		h := node.New(k, m, id, pos)
		cl := cluster.New(cluster.Config{Timing: w.timing})
		f := fds.New(fds.DefaultConfig(w.timing), cl)
		fw := intercluster.New(intercluster.DefaultConfig(w.timing), cl, f)
		sampler := func(id wire.NodeID) Sampler {
			return func(e wire.Epoch) (float64, bool) { return float64(id), true }
		}(id)
		ag := New(cl, f, sampler)
		h.Use(cl)
		h.Use(f)
		h.Use(fw)
		h.Use(ag)
		w.hosts = append(w.hosts, h)
		w.aggs = append(w.aggs, ag)
		h.Boot()
	}
	return w
}

// chain is the three-cluster topology from the intercluster tests.
func chain() []geo.Point {
	return []geo.Point{
		{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0},
		{X: -20, Y: 10}, {X: -20, Y: -10},
		{X: 75, Y: 0}, {X: 225, Y: 0},
		{X: 20, Y: 30}, {X: 20, Y: -30},
		{X: 180, Y: 30}, {X: 180, Y: -30},
		{X: 300, Y: 30}, {X: 300, Y: -30},
	}
}

func TestClusterPartialExact(t *testing.T) {
	// Single clique cluster: the partial must cover every member exactly.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}, {X: -30, Y: 0}, {X: 0, Y: -30}}
	w := buildWorld(t, 1, 0, pts)
	w.kernel.RunUntil(w.timing.EpochStart(3))

	// Epoch 2 was a settled FDS epoch; readings are NIDs 1..5.
	s, ok := w.aggs[0].ClusterPartial(2)
	if !ok {
		t.Fatal("CH has no cluster partial")
	}
	if s.Count != 5 || s.Sum != 15 || s.Min != 1 || s.Max != 5 {
		t.Errorf("partial = %+v, want n=5 sum=15 min=1 max=5", s)
	}
	if math.Abs(s.Mean()-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", s.Mean())
	}
}

func TestGlobalAggregateAcrossClusters(t *testing.T) {
	w := buildWorld(t, 2, 0, chain())
	w.kernel.RunUntil(w.timing.EpochStart(4))

	// Every clusterhead must assemble the full global picture for a
	// settled epoch: 13 readings, sum 1+2+...+13 = 91.
	for _, chIdx := range []int{0, 1, 2} {
		g, clusters := w.aggs[chIdx].Global(2)
		if clusters != 3 {
			t.Errorf("CH %d combined %d cluster partials, want 3", chIdx+1, clusters)
		}
		if g.Count != 13 || g.Sum != 91 || g.Min != 1 || g.Max != 13 {
			t.Errorf("CH %d global = %+v, want n=13 sum=91 min=1 max=13", chIdx+1, g)
		}
	}
	// Origins are the three clusterheads.
	origins := w.aggs[0].Origins(2)
	if len(origins) != 3 || origins[0] != 1 || origins[1] != 2 || origins[2] != 3 {
		t.Errorf("origins = %v", origins)
	}
}

func TestCrashedMemberLeavesAggregate(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}, {X: -30, Y: 0}, {X: 0, Y: -30}}
	w := buildWorld(t, 3, 0, pts)
	w.kernel.At(w.timing.EpochStart(2)+w.timing.Interval/2, func() { w.hosts[4].Crash() })
	w.kernel.RunUntil(w.timing.EpochStart(5))

	s, ok := w.aggs[0].ClusterPartial(3)
	if !ok {
		t.Fatal("no partial for the post-crash epoch")
	}
	if s.Count != 4 || s.Sum != 10 || s.Max != 4 {
		t.Errorf("partial after crash = %+v, want n=4 sum=10 max=4", s)
	}
}

func TestAggregationZeroExtraIntraClusterMessages(t *testing.T) {
	// The readings ride the FDS digests: aggregation adds exactly ONE
	// transmission per cluster per epoch (the CH's partial) in a single
	// isolated cluster.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}}
	w := buildWorld(t, 4, 0, pts)
	w.kernel.RunUntil(w.timing.EpochStart(5))
	sent := w.medium.Sent(wire.KindAggregate)
	// Epochs 1..4 had a formed cluster: at most one partial each (epoch 0
	// is formation; its digest round still yields a partial once marked).
	if sent < 3 || sent > 5 {
		t.Errorf("aggregate transmissions = %d, want one per settled epoch (3..5)", sent)
	}
}

func TestAggregationUnderLoss(t *testing.T) {
	// Aggregation relays are deliberately one-shot (a lost partial costs
	// one epoch of staleness), so under loss the right expectation is
	// "assembles fully in SOME recent epoch", not "every epoch".
	w := buildWorld(t, 5, 0.1, chain())
	w.kernel.RunUntil(w.timing.EpochStart(8))
	best := 0
	for e := wire.Epoch(3); e <= 6; e++ {
		if _, clusters := w.aggs[0].Global(e); clusters > best {
			best = clusters
		}
	}
	if best < 3 {
		t.Errorf("no epoch in 3..6 assembled all 3 clusters at p=0.1 (best %d)", best)
	}
}

func TestPartialsPruned(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}}
	w := buildWorld(t, 6, 0, pts)
	w.kernel.RunUntil(w.timing.EpochStart(12))
	if _, ok := w.aggs[0].ClusterPartial(2); ok {
		t.Error("ancient partial never pruned")
	}
	if _, ok := w.aggs[0].ClusterPartial(10); !ok {
		t.Error("recent partial missing")
	}
}

func TestConfigValidation(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig())
	f := fds.New(fds.DefaultConfig(cluster.DefaultTiming()), cl)
	sampler := func(wire.Epoch) (float64, bool) { return 0, true }
	for name, fn := range map[string]func(){
		"nil cluster": func() { New(nil, f, sampler) },
		"nil fds":     func() { New(cl, nil, sampler) },
		"nil sampler": func() { New(cl, f, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
