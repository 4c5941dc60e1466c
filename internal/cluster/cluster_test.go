package cluster

import (
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// world bundles a simulated field running only the formation protocol.
type world struct {
	kernel *sim.Kernel
	medium *radio.Medium
	hosts  []*node.Host
	protos []*Protocol
}

// buildWorld places hosts at the given positions with the given loss
// probability and boots them.
func buildWorld(t *testing.T, seed int64, lossProb float64, positions []geo.Point) *world {
	t.Helper()
	k := sim.New(seed)
	params := radio.Defaults(lossProb)
	m := radio.New(k, params)
	w := &world{kernel: k, medium: m}
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		p := New(DefaultConfig())
		h.Use(p)
		w.hosts = append(w.hosts, h)
		w.protos = append(w.protos, p)
	}
	for _, h := range w.hosts {
		h.Boot()
	}
	return w
}

// runEpochs advances the world through n full epochs.
func (w *world) runEpochs(n int) {
	timing := DefaultTiming()
	w.kernel.RunUntil(sim.Time(uint64(timing.Interval) * uint64(n)))
}

func TestSingleClusterFormation(t *testing.T) {
	// Five nodes, all mutually in range: one cluster, CH = lowest NID.
	w := buildWorld(t, 1, 0, []geo.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}, {X: -30, Y: 0}, {X: 0, Y: -30},
	})
	w.runEpochs(2)

	for i, p := range w.protos {
		v := p.View()
		if !v.Marked {
			t.Fatalf("node %d not marked after 2 epochs", i+1)
		}
		if v.CH != 1 {
			t.Errorf("node %d affiliated with %v, want n1 (lowest NID)", i+1, v.CH)
		}
		if (i == 0) != v.IsCH {
			t.Errorf("node %d IsCH = %v", i+1, v.IsCH)
		}
		if len(v.Members) != 5 {
			t.Errorf("node %d sees %d members, want 5", i+1, len(v.Members))
		}
	}
	// DCHs designated (F2), at most maxDCH, not including the CH.
	v := w.protos[0].View()
	if len(v.DCHs) == 0 || len(v.DCHs) > maxDCH {
		t.Errorf("DCHs = %v", v.DCHs)
	}
	for _, d := range v.DCHs {
		if d == 1 {
			t.Error("CH listed as its own deputy")
		}
	}
}

func TestTwoClustersWithGateway(t *testing.T) {
	// Two clusters 150 m apart; node 5 in the middle hears both CHs.
	w := buildWorld(t, 2, 0, []geo.Point{
		{X: 0, Y: 0},    // n1: CH of left cluster
		{X: 20, Y: 10},  // n2: left member
		{X: 150, Y: 0},  // n3: CH of right cluster
		{X: 130, Y: 10}, // n4: right member
		{X: 75, Y: 0},   // n5: hears both n1 and n3 -> gateway
	})
	w.runEpochs(3)

	v1, v3, v5 := w.protos[0].View(), w.protos[2].View(), w.protos[4].View()
	if !v1.IsCH || !v3.IsCH {
		t.Fatalf("expected n1 and n3 as CHs; v1=%+v v3=%+v", v1, v3)
	}
	if !v5.Marked {
		t.Fatal("gateway node not admitted")
	}
	if !w.protos[4].IsGW() {
		t.Fatalf("n5 should be a gateway candidate; OtherCHs=%v", w.protos[4].AppendOtherCHs(nil))
	}
	// F3: exactly one affiliation.
	if v5.CH != 1 && v5.CH != 3 {
		t.Errorf("gateway affiliated with %v", v5.CH)
	}
	// The gateway must not remain a member of both clusters.
	inLeft, inRight := v1.IsMember(5), v3.IsMember(5)
	if inLeft && inRight {
		t.Error("gateway is a member of both clusters (violates F3)")
	}
	if !inLeft && !inRight {
		t.Error("gateway is a member of neither cluster")
	}
	// Both CHs should know each other as neighbors.
	if n := w.protos[0].AppendNeighborCHs(nil); len(n) != 1 || n[0] != 3 {
		t.Errorf("n1 neighbor CHs = %v, want [n3]", n)
	}
	if n := w.protos[2].AppendNeighborCHs(nil); len(n) != 1 || n[0] != 1 {
		t.Errorf("n3 neighbor CHs = %v, want [n1]", n)
	}
	// The gateway should rank itself for the pair.
	rank, n, ok := w.protos[4].GWRank(1, 3)
	if !ok || rank != 1 || n != 1 {
		t.Errorf("GWRank = (%d,%d,%v), want (1,1,true)", rank, n, ok)
	}
}

func TestMultipleGatewaysRanked(t *testing.T) {
	// Three nodes bridge the two clusters; candidate ranks must be unique
	// and ordered by NID.
	w := buildWorld(t, 3, 0, []geo.Point{
		{X: 0, Y: 0},    // n1: left CH
		{X: 150, Y: 0},  // n2: right CH... NID 2 < others nearby?
		{X: 75, Y: 0},   // n3: bridge
		{X: 75, Y: 20},  // n4: bridge
		{X: 75, Y: -20}, // n5: bridge
		{X: 20, Y: 0},   // n6: left member
		{X: 130, Y: 0},  // n7: right member
	})
	w.runEpochs(3)

	ranks := map[int]int{}
	for _, i := range []int{2, 3, 4} { // protos for n3..n5
		rank, total, ok := w.protos[i].GWRank(1, 2)
		if !ok {
			t.Fatalf("n%d not a candidate", i+1)
		}
		if total != 3 {
			t.Errorf("n%d sees %d candidates, want 3", i+1, total)
		}
		ranks[rank]++
	}
	for r := 1; r <= 3; r++ {
		if ranks[r] != 1 {
			t.Errorf("rank %d held by %d candidates, want exactly 1 (ranks=%v)", r, ranks[r], ranks)
		}
	}
	// Candidate list visible to the CH, primary first.
	cands := w.protos[0].AppendGatewayCandidates(nil, 1, 2)
	if len(cands) != 3 || cands[0] != 3 {
		t.Errorf("candidates = %v, want [n3 n4 n5]", cands)
	}
}

func TestIsolatedNodeStaysUnmarked(t *testing.T) {
	w := buildWorld(t, 4, 0, []geo.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 1000, Y: 1000}, // n3 isolated
	})
	w.runEpochs(3)
	if !w.protos[0].View().Marked || !w.protos[1].View().Marked {
		t.Error("connected nodes should be admitted")
	}
	v3 := w.protos[2].View()
	// An isolated node elects itself CH of a singleton cluster (it hears
	// no one, so it is trivially the lowest unmarked node).
	if !v3.IsCH {
		t.Errorf("isolated node: view=%+v; want self-clusterhead of singleton", v3)
	}
	if len(v3.Members) != 1 {
		t.Errorf("isolated cluster has %d members, want 1", len(v3.Members))
	}
}

func TestLateArrivalSubscribes(t *testing.T) {
	// F4/F5: a host booted after formation is admitted via its unmarked
	// heartbeat being treated as a membership subscription.
	k := sim.New(5)
	m := radio.New(k, radio.Defaults(0))
	positions := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}}
	var protos []*Protocol
	var hosts []*node.Host
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		p := New(DefaultConfig())
		h.Use(p)
		hosts = append(hosts, h)
		protos = append(protos, p)
	}
	late := node.New(k, m, 99, geo.Point{X: 0, Y: 40})
	lateProto := New(DefaultConfig())
	late.Use(lateProto)

	for _, h := range hosts {
		h.Boot()
	}
	timing := DefaultTiming()
	// Boot the late host during epoch 2.
	k.At(timing.EpochStart(2), func() { late.Boot() })
	k.RunUntil(timing.EpochStart(5))

	v := lateProto.View()
	if !v.Marked {
		t.Fatal("late arrival never admitted")
	}
	if v.CH != 1 {
		t.Errorf("late arrival affiliated with %v, want n1", v.CH)
	}
	if !protos[0].View().IsMember(99) {
		t.Error("CH does not list the late arrival")
	}
}

func TestFormationUnderMessageLoss(t *testing.T) {
	// With p = 0.3 the open-ended iterations (F4) must still admit every
	// node within a few epochs.
	positions := []geo.Point{
		{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 40}, {X: -40, Y: 0},
		{X: 0, Y: -40}, {X: 30, Y: 30}, {X: -30, Y: 30}, {X: 30, Y: -30},
	}
	w := buildWorld(t, 6, 0.3, positions)
	w.runEpochs(8)
	for i, p := range w.protos {
		if !p.View().Marked {
			t.Errorf("node %d still unmarked after 8 epochs at p=0.3", i+1)
		}
	}
}

func TestEveryMemberWithinRangeOfCH(t *testing.T) {
	// Random 600x600 field, 60 nodes: after formation, every member must
	// be a one-hop neighbor of its CH (the unit-disk cluster property).
	k := sim.New(7)
	m := radio.New(k, radio.Defaults(0))
	pts := geo.PlaceUniformRect(k.Rand(), geo.NewRect(600, 600), 60)
	var protos []*Protocol
	var hosts []*node.Host
	for i, pos := range pts {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		p := New(DefaultConfig())
		h.Use(p)
		hosts = append(hosts, h)
		protos = append(protos, p)
	}
	for _, h := range hosts {
		h.Boot()
	}
	timing := DefaultTiming()
	k.RunUntil(timing.EpochStart(6))

	marked := 0
	for i, p := range protos {
		v := p.View()
		if !v.Marked {
			continue
		}
		marked++
		if v.IsCH {
			continue
		}
		chPos := pts[int(v.CH)-1]
		if !hosts[i].Pos().WithinRange(chPos, 100) {
			t.Errorf("node %d at %v affiliated to CH %v at %v: out of range",
				i+1, hosts[i].Pos(), v.CH, chPos)
		}
	}
	if marked < len(protos) {
		t.Errorf("only %d/%d nodes admitted", marked, len(protos))
	}
}

func TestCHMembershipConsistent(t *testing.T) {
	// For every marked non-CH node, the node's CH must list it as member.
	k := sim.New(8)
	m := radio.New(k, radio.Defaults(0))
	pts := geo.PlaceUniformRect(k.Rand(), geo.NewRect(400, 400), 40)
	var protos []*Protocol
	for i, pos := range pts {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		p := New(DefaultConfig())
		h.Use(p)
		protos = append(protos, p)
		h.Boot()
	}
	timing := DefaultTiming()
	k.RunUntil(timing.EpochStart(6))

	byID := map[wire.NodeID]*Protocol{}
	for i, p := range protos {
		byID[wire.NodeID(i+1)] = p
	}
	for i, p := range protos {
		v := p.View()
		if !v.Marked || v.IsCH {
			continue
		}
		chProto := byID[v.CH]
		if chProto == nil {
			t.Fatalf("node %d has unknown CH %v", i+1, v.CH)
		}
		if !chProto.View().IsMember(wire.NodeID(i + 1)) {
			t.Errorf("CH %v does not list its member n%d", v.CH, i+1)
		}
	}
}

func TestMutators(t *testing.T) {
	p := New(DefaultConfig())
	// Install a static view: CH n1, members n1..n5, DCHs [n2 n3], self n2.
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3, 4, 5}, []wire.NodeID{2, 3}, 2)
	v := p.View()
	if !v.Marked || v.CH != 1 || v.IsCH {
		t.Fatalf("static view wrong: %+v", v)
	}
	if len(v.Members) != 5 {
		t.Fatalf("members = %v", v.Members)
	}

	p.NoteFailed([]wire.NodeID{4})
	if p.View().IsMember(4) {
		t.Error("NoteFailed did not remove the member")
	}

	p.NoteNewCH(1, 2) // we are n2... but InstallStaticView set self via isCH flag only
	v = p.View()
	if v.CH != 2 {
		t.Errorf("NoteNewCH: CH = %v, want 2", v.CH)
	}
	if v.IsMember(1) {
		t.Error("old CH still listed after takeover")
	}

	p.Demote()
	v = p.View()
	if v.Marked || v.CH != wire.NoNode {
		t.Errorf("Demote left state: %+v", v)
	}
}

func TestNoteNewCHIgnoredForForeignCluster(t *testing.T) {
	p := New(DefaultConfig())
	p.InstallStaticView(1, []wire.NodeID{1, 2}, nil, 2)
	p.NoteNewCH(9, 10) // unrelated cluster
	if got := p.View().CH; got != 1 {
		t.Errorf("CH = %v, want 1", got)
	}
}

func TestTimingHelpers(t *testing.T) {
	tm := DefaultTiming()
	if !tm.Valid() {
		t.Fatal("default timing invalid")
	}
	if tm.EpochStart(0) != 0 {
		t.Error("epoch 0 should start at 0")
	}
	if tm.EpochStart(3) != 3*tm.Interval {
		t.Error("EpochStart(3) wrong")
	}
	if tm.EpochOf(tm.Interval+1) != 1 {
		t.Error("EpochOf wrong")
	}
	if tm.EpochOf(-5) != 0 {
		t.Error("EpochOf negative should clamp to 0")
	}
	if tm.R1End() != tm.Thop || tm.R2End() != 2*tm.Thop || tm.R3End() != 3*tm.Thop {
		t.Error("round offsets wrong")
	}
	bad := Timing{Thop: sim.Time(time.Second), Interval: sim.Time(time.Second)}
	if bad.Valid() {
		t.Error("interval < 8*Thop should be invalid")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid timing should panic")
		}
	}()
	New(Config{Timing: Timing{}})
}

func TestDeterministicFormation(t *testing.T) {
	run := func() []wire.NodeID {
		k := sim.New(99)
		m := radio.New(k, radio.Defaults(0.2))
		pts := geo.PlaceUniformRect(k.Rand(), geo.NewRect(300, 300), 30)
		var protos []*Protocol
		for i, pos := range pts {
			h := node.New(k, m, wire.NodeID(i+1), pos)
			p := New(DefaultConfig())
			h.Use(p)
			protos = append(protos, p)
			h.Boot()
		}
		k.RunUntil(DefaultTiming().EpochStart(4))
		out := make([]wire.NodeID, len(protos))
		for i, p := range protos {
			out[i] = p.View().CH
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("formation not deterministic at node %d: %v vs %v", i+1, a[i], b[i])
		}
	}
}
