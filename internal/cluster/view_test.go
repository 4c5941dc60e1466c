package cluster

import (
	"slices"
	"testing"

	"clusterfds/internal/node"
	"clusterfds/internal/wire"
)

// viewEpoch is one epoch of the cluster reads an ordinary member of a static
// cluster makes: fds copies the view into its own snapshot at the epoch
// start, the host hears a foreign CH it already hears, its own CH
// re-announces the same membership, and the health update's cumulative
// failure list — all long gone from the cluster — goes through NoteFailed.
// Each delivery is followed by the accessor reads the co-resident protocols
// make per delivery.
type viewEpoch struct {
	p      *Protocol
	h      *node.Host
	upd    wire.HealthUpdate
	ann    wire.ClusterAnnounce
	failed []wire.NodeID

	snap   View          // fds's snapshot, refilled every epoch
	others []wire.NodeID // appendBridgedWith's scratch
	ok     bool
}

func newViewEpoch(t testing.TB) *viewEpoch {
	_, p, h := soloHost(t, 2)
	members := []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	p.InstallStaticView(1, members, []wire.NodeID{3, 4}, 2)
	return &viewEpoch{
		p:      p,
		h:      h,
		upd:    wire.HealthUpdate{From: 9, CH: 9},
		ann:    wire.ClusterAnnounce{CH: 1, Members: members, DCHs: []wire.NodeID{3, 4}},
		failed: []wire.NodeID{20, 21, 22, 23},
	}
}

// read makes the per-delivery reads and records whether they all gave the
// static cluster's answers.
func (w *viewEpoch) read() {
	p := w.p
	w.others = p.AppendOtherCHs(w.others[:0])
	w.ok = p.Marked() && p.CH() == 1 && !p.IsCH() && p.IsMember(5) && !p.IsMember(9) &&
		p.HearsCH(9) && p.IsGW() && !p.IsDeputy() && !p.HasBorderClusters() &&
		slices.Equal(w.others, []wire.NodeID{9})
}

func (w *viewEpoch) run() {
	w.p.beginEpoch(w.p.epoch + 1)
	w.p.ViewInto(&w.snap)
	w.upd.Epoch = w.p.epoch
	handle(w.p, w.h, &w.upd)
	w.read()
	w.ann.Epoch = w.p.epoch
	handle(w.p, w.h, &w.ann)
	w.read()
	w.p.NoteFailed(w.failed)
	w.read()
}

// TestViewIsACopy pins the read path: a snapshot taken with View or ViewInto
// keeps reading what it read across later NoteFailed and Readmit calls, a
// refill through ViewInto shows the change, and a warm epoch of ViewInto plus
// per-delivery accessor reads allocates nothing.
func TestViewIsACopy(t *testing.T) {
	w := newViewEpoch(t)
	for i := 0; i < 4; i++ {
		w.run()
	}
	if !w.ok {
		t.Fatalf("accessor reads disagree with the static cluster: OtherCHs %v", w.others)
	}
	if !slices.Equal(w.snap.OtherCHs, []wire.NodeID{9}) || len(w.snap.Members) != 8 || !slices.Equal(w.snap.DCHs, []wire.NodeID{3, 4}) {
		t.Fatalf("snapshot = %+v", w.snap)
	}
	if avg := testing.AllocsPerRun(20, w.run); avg != 0 {
		t.Errorf("a warm epoch of ViewInto and accessor reads allocates %.1f times, want 0", avg)
	}

	// A clusterhead, so that Readmit changes the membership too.
	_, p, _ := soloHost(t, 1)
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3, 4, 5}, []wire.NodeID{3}, 1)
	var into View
	p.ViewInto(&into)
	held := p.View()
	was := slices.Clone(held.Members)
	wasDCHs := slices.Clone(held.DCHs)
	check := func(step string, v View, members, dchs []wire.NodeID) {
		t.Helper()
		if !slices.Equal(v.Members, members) || !slices.Equal(v.DCHs, dchs) {
			t.Errorf("%s: snapshot reads members %v, deputies %v; want %v, %v", step, v.Members, v.DCHs, members, dchs)
		}
	}

	p.NoteFailed([]wire.NodeID{3})
	check("View across NoteFailed", held, was, wasDCHs)
	check("ViewInto across NoteFailed", into, was, wasDCHs)
	dropped := []wire.NodeID{1, 2, 4, 5}
	check("fresh View after NoteFailed", p.View(), dropped, nil)
	if p.IsMember(3) {
		t.Error("IsMember still sees the failed n3")
	}

	afterDrop := p.View()
	p.Readmit(3)
	check("View across Readmit", afterDrop, dropped, nil)
	check("first View across Readmit", held, was, wasDCHs)
	p.ViewInto(&into)
	check("ViewInto refilled after Readmit", into, was, nil)
	if !p.IsMember(3) {
		t.Error("IsMember misses the readmitted n3")
	}
}

// TestStaleForeignCHIsNotDirect: a foreign CH heard at epoch e and not heard
// again is no longer a one-hop neighbor at e+staleAfter+1, even before the
// next epoch boundary purges it, so a border peer of its cluster makes it a
// border cluster; the boundary then drops its entry.
func TestStaleForeignCHIsNotDirect(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	handle(p, h, &wire.HealthUpdate{From: 9, CH: 9, Epoch: p.epoch})
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	if got := p.AppendBorderClusters(nil); len(got) != 0 {
		t.Fatalf("AppendBorderClusters = %v while n9 is heard directly, want none", got)
	}

	p.epoch += staleAfter + 1 // silence from n9, and no epoch boundary
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	if got := p.AppendBorderClusters(nil); !slices.Equal(got, []wire.NodeID{9}) {
		t.Errorf("AppendBorderClusters = %v after n9 went stale, want [n9]", got)
	}
	if got := p.View().OtherCHs; len(got) != 0 || p.HearsCH(9) || p.IsGW() {
		t.Errorf("OtherCHs = %v, HearsCH(n9) %v, IsGW %v after n9 went stale, want none", got, p.HearsCH(9), p.IsGW())
	}
	p.beginEpoch(p.epoch + 1)
	if _, ok := p.findOtherCH(9); ok {
		t.Error("the stale entry for n9 survived the epoch boundary")
	}
}

// BenchmarkViewEpoch is one warm epoch of TestViewIsACopy's cluster reads:
// an epoch boundary, fds's ViewInto snapshot, and three deliveries that
// change nothing, each followed by the per-delivery accessor reads. Pinned at
// 0 allocs/op.
func BenchmarkViewEpoch(b *testing.B) {
	w := newViewEpoch(b)
	for i := 0; i < 4; i++ {
		w.run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.run()
	}
}
