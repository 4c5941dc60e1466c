package cluster

import (
	"slices"
	"testing"

	"clusterfds/internal/node"
	"clusterfds/internal/wire"
)

// viewEpoch is one epoch of the View traffic an ordinary member of a static
// cluster sees: fds snapshots the view at the epoch start, the host hears a
// foreign CH it already hears, its own CH re-announces the same membership,
// and the health update's cumulative failure list — all long gone from the
// cluster — goes through NoteFailed. Each mutation is followed by a View()
// call, as the co-resident protocols make one per delivery.
type viewEpoch struct {
	p      *Protocol
	h      *node.Host
	upd    wire.HealthUpdate
	ann    wire.ClusterAnnounce
	failed []wire.NodeID
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

// begin starts the next epoch and takes its first snapshot.
func (w *viewEpoch) begin() View {
	w.p.beginEpoch(w.p.epoch + 1)
	return w.p.View()
}

// noOps delivers the epoch's mutations that change nothing a View shows,
// handing each one's snapshot to each.
func (w *viewEpoch) noOps(each func(step string, v View)) {
	w.upd.Epoch = w.p.epoch
	handle(w.p, w.h, &w.upd)
	each("foreign CH refresh", w.p.View())
	w.ann.Epoch = w.p.epoch
	handle(w.p, w.h, &w.ann)
	each("same announcement", w.p.View())
	w.p.NoteFailed(w.failed)
	each("failed non-members", w.p.View())
}

func (w *viewEpoch) run() {
	w.begin()
	w.noOps(func(string, View) {})
}

// sameArray reports whether a and b are the same slice: same length and,
// when non-empty, the same backing array.
func sameArray(a, b []wire.NodeID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestViewCopiesOnlyWhatChanged pins the View's copy rule: within one arena
// generation a mutation that changes nothing visible carves nothing and
// hands back the slices already out, a real change carves only the part
// that changed, and a snapshot taken before the change keeps reading what
// it read.
func TestViewCopiesOnlyWhatChanged(t *testing.T) {
	w := newViewEpoch(t)
	for i := 0; i < 4; i++ { // the foreign CH enters the view in the first
		w.run()
	}

	if avg := testing.AllocsPerRun(20, w.run); avg != 0 {
		t.Errorf("a warm epoch of View traffic allocates %.1f times, want 0", avg)
	}

	v0 := w.begin()
	if !slices.Equal(v0.OtherCHs, []wire.NodeID{9}) || len(v0.Members) != 8 || len(v0.DCHs) != 2 {
		t.Fatalf("static view = %+v", v0)
	}
	used := len(w.p.arena.cur)
	w.noOps(func(step string, v View) {
		if n := len(w.p.arena.cur); n != used {
			t.Errorf("%s: arena grew %d -> %d IDs", step, used, n)
		}
		if !sameArray(v.Members, v0.Members) || !sameArray(v.DCHs, v0.DCHs) || !sameArray(v.OtherCHs, v0.OtherCHs) {
			t.Errorf("%s: View re-carved an unchanged part", step)
		}
	})

	held := w.p.View()
	was := slices.Clone(held.Members)
	w.p.NoteFailed([]wire.NodeID{5})
	v := w.p.View()
	if v.IsMember(5) || len(v.Members) != len(was)-1 {
		t.Fatalf("Members after dropping n5 = %v", v.Members)
	}
	if &v.Members[0] == &held.Members[0] {
		t.Error("dropping a member reused the held snapshot's Members")
	}
	if !slices.Equal(held.Members, was) {
		t.Errorf("the snapshot held across the drop reads %v, want %v", held.Members, was)
	}
	if !sameArray(v.DCHs, held.DCHs) || !sameArray(v.OtherCHs, held.OtherCHs) {
		t.Error("dropping a member re-carved the unchanged DCHs or OtherCHs")
	}
}

// TestStaleForeignCHIsNotDirect: a foreign CH heard at epoch e and not heard
// again is no longer a one-hop neighbor at e+staleAfter+1, whether or not a
// View was built in between, so a border peer of its cluster makes it a
// border cluster; the next epoch boundary purges its entry.
func TestStaleForeignCHIsNotDirect(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	handle(p, h, &wire.HealthUpdate{From: 9, CH: 9, Epoch: p.epoch})
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	if got := p.BorderClusters(); len(got) != 0 {
		t.Fatalf("BorderClusters = %v while n9 is heard directly, want none", got)
	}

	p.epoch += staleAfter + 1 // silence from n9, and no View() call
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	if got := p.BorderClusters(); !slices.Equal(got, []wire.NodeID{9}) {
		t.Errorf("BorderClusters = %v after n9 went stale, want [n9]", got)
	}
	if got := p.View().OtherCHs; len(got) != 0 {
		t.Errorf("OtherCHs = %v after n9 went stale, want none", got)
	}
	p.beginEpoch(p.epoch + 1)
	if _, ok := p.otherCHs[9]; ok {
		t.Error("the stale entry for n9 survived the epoch boundary")
	}
}

// BenchmarkViewEpoch is one warm epoch of the View traffic of
// TestViewCopiesOnlyWhatChanged: an arena flip, four snapshots and three
// mutations that change nothing visible. Pinned at 0 allocs/op.
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
