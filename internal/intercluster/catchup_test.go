package intercluster

import (
	"slices"
	"strings"
	"testing"
	"time"

	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// TestCatchUpOnNewAdjacency: a cluster that forms AFTER a failure's report
// flood still learns of it when the established neighbors notice the new
// adjacency and share their cumulative failed set.
func TestCatchUpOnNewAdjacency(t *testing.T) {
	// Start with clusters A and B; crash a member of A early; then boot a
	// third population that forms cluster D adjacent to B only.
	positions := []geo.Point{
		{X: 0, Y: 0},     // n1 CH A
		{X: 150, Y: 0},   // n2 CH B
		{X: -20, Y: 10},  // n3 member A
		{X: 20, Y: 30},   // n4 member A (victim)
		{X: 75, Y: 0},    // n5 gateway A-B
		{X: 180, Y: 30},  // n6 member B
		{X: 180, Y: -30}, // n7 member B
	}
	w := buildWorld(t, 21, 0, nil, positions)
	w.crashAtEpoch(3, 2) // crash n4 mid-epoch 2; report floods at epoch 3

	// The late cluster D: three hosts east of B, booted during epoch 5,
	// bridged to B by n8 which hears CH B.
	late := []geo.Point{
		{X: 225, Y: 0},  // n8: hears CH B (75 m) and will bridge to D
		{X: 300, Y: 0},  // n9: CH D
		{X: 320, Y: 30}, // n10: member D
	}
	for i, pos := range late {
		id := wire.NodeID(8 + i)
		h := node.New(w.kernel, w.medium, id, pos, node.WithTrace(w.tracer))
		w.hosts = append(w.hosts, h)
		w.stacks = append(w.stacks, Install(h, fds.DefaultConfig(w.timing), DefaultConfig(w.timing)))
		at := w.timing.EpochStart(5) + w.timing.Interval/4
		w.kernel.At(at, func() { h.Boot() })
	}

	// Three more populations probe how far the catch-up travels. IDs start
	// at 11 so the late hosts above keep theirs.
	//   - n11, a member of B whose only foreign contact will be n17;
	//   - cluster Z (CH n12) west of A, bridged by n13: two adjacencies from
	//     B, the cluster that will originate the catch-up;
	//   - cluster E (CH n16), booted in epoch 4 — after the flood, before D —
	//     south of B and reachable only over the distributed gateway
	//     n11 <-> n17: nobody hears both clusterheads, so B never counts E as
	//     a neighbor and E gets no catch-up of its own.
	extra := []struct {
		pos  geo.Point
		boot wire.Epoch
	}{
		{geo.Point{X: 150, Y: -90}, 0},  // n11 member B, border to E
		{geo.Point{X: -150, Y: 0}, 0},   // n12 CH Z
		{geo.Point{X: -75, Y: 0}, 0},    // n13 gateway A-Z
		{geo.Point{X: -180, Y: 30}, 0},  // n14 member Z
		{geo.Point{X: -180, Y: -30}, 0}, // n15 member Z
		{geo.Point{X: 150, Y: -250}, 4}, // n16 CH E
		{geo.Point{X: 150, Y: -170}, 4}, // n17 member E, border to B
		{geo.Point{X: 170, Y: -260}, 4}, // n18 member E
	}
	for i, x := range extra {
		h := node.New(w.kernel, w.medium, wire.NodeID(11+i), x.pos, node.WithTrace(w.tracer))
		w.hosts = append(w.hosts, h)
		w.stacks = append(w.stacks, Install(h, fds.DefaultConfig(w.timing), DefaultConfig(w.timing)))
		if x.boot == 0 {
			h.Boot()
		} else {
			w.kernel.At(w.timing.EpochStart(x.boot)+w.timing.Interval/4, func() { h.Boot() })
		}
	}
	w.runUntilEpoch(14)
	for id, ch := range map[wire.NodeID]wire.NodeID{11: 2, 13: 1, 12: 12, 14: 12, 16: 16, 17: 16, 18: 16} {
		if got := w.stacks[id-1].Cluster.View().CH; got != ch {
			t.Fatalf("layout: n%d follows %v, want n%d", id, got, ch)
		}
	}

	// The late hosts never heard the epoch-3 flood; the catch-up report on
	// the new B<->D adjacency must deliver the old news.
	for i := 7; i < 10; i++ {
		if w.hosts[i].Crashed() {
			continue
		}
		if !w.stacks[i].FDS.IsSuspected(4) {
			t.Errorf("late host n%d never learned the pre-formation failure of n4", i+1)
		}
	}
	// And a catch-up transmission must actually have been traced.
	found := false
	for _, e := range w.tracer.OfType(trace.TypeReportForward) {
		if strings.HasPrefix(e.Detail, "catch-up") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no catch-up report traced")
	}

	// B's catch-up leaves B over its own gateways, distributed ones
	// included: E, which no flood and no catch-up of its own ever reached,
	// learns the old failure over n11 -> n17.
	for id := wire.NodeID(16); id <= 18; id++ {
		if !w.stacks[id-1].FDS.IsSuspected(4) {
			t.Errorf("n%d, behind the two-hop gateway, never learned the pre-formation failure of n4", id)
		}
	}
	// And it stops after one adjacency: A rebroadcasts it for its members,
	// but A's gateway does not engage on that, so nothing of Z's — which knew
	// of n4 from the epoch-3 flood — transmits a report once D exists.
	if !w.stacks[11].FDS.IsSuspected(4) {
		t.Fatal("layout: Z never heard the original flood")
	}
	relayedByA, twoHop := false, false
	for _, e := range w.tracer.Events() {
		if e.Type == trace.TypeDetect || time.Duration(w.timing.EpochStart(5)) > e.At {
			continue
		}
		if e.Node == 1 && strings.HasPrefix(e.Detail, "relay origin=n2") {
			relayedByA = true
		}
		if e.Node == 11 && strings.HasPrefix(e.Detail, "two-hop origin=n2") {
			twoHop = true
		}
		if e.Node >= 12 && e.Node <= 15 {
			t.Errorf("catch-up travelled past its first adjacency: %v", e)
		}
	}
	if !relayedByA {
		t.Error("A, adjacent to the catch-up's origin, never rebroadcast it")
	}
	if !twoHop {
		t.Error("B's border member n11 never relayed the catch-up toward E")
	}
}

// TestNoCatchUpWithoutHistory: new adjacencies in a failure-free network
// must not generate any reports.
func TestNoCatchUpWithoutHistory(t *testing.T) {
	w := buildWorld(t, 22, 0, nil, threeClusterChain())
	w.runUntilEpoch(8)
	if n := w.medium.Sent(wire.KindFailureReport); n != 0 {
		t.Errorf("%d failure reports in a failure-free network", n)
	}
}

// TestReportFromUpdateCanonical: all gateways must derive identical report
// content from the same update, or de-duplication breaks.
func TestReportFromUpdateCanonical(t *testing.T) {
	up := &wire.HealthUpdate{
		From: 3, CH: 3, Epoch: 7,
		NewFailed: []wire.NodeID{9},
		AllFailed: []wire.NodeID{9, 4},
		Rescinded: []wire.Rescission{{Node: 2, Epoch: 5}},
	}
	a, b := reportFromUpdate(up), reportFromUpdate(up)
	if a.OriginCH != 3 || a.Seq != 7 || a.Epoch != 7 {
		t.Errorf("report identity wrong: %+v", a)
	}
	if len(a.NewFailed) != 1 || len(a.AllFailed) != 2 || len(a.Rescinded) != 1 {
		t.Errorf("report content wrong: %+v", a)
	}
	if b.OriginCH != a.OriginCH || b.Seq != a.Seq {
		t.Errorf("reports not canonical: %+v vs %+v", a, b)
	}

	// The deep copy happens at state creation: tracked report content must
	// not alias the (scratch-backed, handler-lifetime) update it derives
	// from. reportFromUpdate itself stays a cheap view.
	p := &Protocol{}
	st := p.getState(&a)
	if !slices.Equal(st.newFailed(), []wire.NodeID{9}) || !slices.Equal(st.allFailed(), []wire.NodeID{9, 4}) ||
		!slices.Equal(st.rescinded, up.Rescinded) {
		t.Errorf("tracked report content wrong: new %v all %v rescinded %v", st.newFailed(), st.allFailed(), st.rescinded)
	}
	up.AllFailed[0] = 99
	up.NewFailed[0] = 99
	up.Rescinded[0].Node = 99
	if st.allFailed()[0] == 99 || st.newFailed()[0] == 99 || st.rescinded[0].Node == 99 {
		t.Error("tracked report aliases the update")
	}
}
