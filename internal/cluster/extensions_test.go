package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// handle feeds a message straight into a protocol (unit-level driving).
func handle(p *Protocol, h *node.Host, m wire.Message) {
	p.Handle(h, m, wire.NoNode)
}

// soloHost builds a booted host with only the given protocol attached.
func soloHost(t testing.TB, id wire.NodeID) (*sim.Kernel, *Protocol, *node.Host) {
	t.Helper()
	k := sim.New(int64(id))
	m := radio.New(k, radio.Defaults(0))
	h := node.New(k, m, id, geo.Point{})
	p := New(DefaultConfig())
	h.Use(p)
	h.Boot()
	return k, p, h
}

func TestReadmit(t *testing.T) {
	_, p, _ := soloHost(t, 1)
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3}, nil, 1)
	p.NoteFailed([]wire.NodeID{2})
	if p.View().IsMember(2) {
		t.Fatal("NoteFailed did not remove")
	}
	p.Readmit(2)
	if !p.View().IsMember(2) {
		t.Error("Readmit did not restore the member")
	}
	p.Readmit(2) // idempotent
	if got := len(p.View().Members); got != 3 {
		t.Errorf("members = %d, want 3", got)
	}
}

func TestReadmitOnlyOnCH(t *testing.T) {
	_, p, _ := soloHost(t, 2)
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3}, nil, 2) // ordinary member
	p.NoteFailed([]wire.NodeID{3})
	p.Readmit(3)
	if p.View().IsMember(3) {
		t.Error("non-CH Readmit should be a no-op")
	}
}

func TestBorderPeersFromForeignDigests(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)

	// A digest from a member of a foreign cluster (CH 9) makes its sender
	// a border peer toward 9.
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	if got := p.AppendBorderClusters(nil); len(got) != 1 || got[0] != 9 {
		t.Fatalf("AppendBorderClusters = %v, want [n9]", got)
	}
	if !p.IsBorderPeer(9, 42) {
		t.Error("n42 should be a border peer of cluster 9")
	}
	if p.IsBorderPeer(9, 43) || p.IsBorderPeer(8, 42) {
		t.Error("spurious border peers")
	}
}

func TestBorderClustersExcludeDirectNeighbors(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	// Hearing CH 9's own update makes it a DIRECT neighbor — the one-hop
	// gateway path is preferred, so 9 must not be a border cluster.
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	handle(p, h, &wire.HealthUpdate{From: 9, CH: 9, Epoch: p.epoch})
	if got := p.AppendBorderClusters(nil); len(got) != 0 {
		t.Errorf("AppendBorderClusters = %v, want none (direct path exists)", got)
	}
	// And the direct candidacy is visible in the view.
	if got := p.View().OtherCHs; len(got) != 1 || got[0] != 9 {
		t.Errorf("OtherCHs = %v, want [n9]", got)
	}
}

func TestBorderPeersAgeOut(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	handle(p, h, &wire.Digest{NID: 42, CH: 9, Epoch: p.epoch})
	if len(p.AppendBorderClusters(nil)) != 1 {
		t.Fatal("border peer not recorded")
	}
	p.epoch += 10 // silence for many epochs
	if got := p.AppendBorderClusters(nil); len(got) != 0 {
		t.Errorf("stale border peers survived: %v", got)
	}
}

// TestBorderPeersMatchMapModel drives the border-peer store with random
// digests, foreign-CH updates, epoch advances and AppendBorderClusters calls,
// against the map of maps it replaced, kept here as the model: per foreign
// CH, the epoch each of its members was last heard. IsBorderPeer,
// AppendBorderClusters and HasBorderClusters must give the model's answers
// throughout, a stale peer included until the next AppendBorderClusters
// drops it.
func TestBorderPeersMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, p, h := soloHost(t, 5)
		p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
		model := map[wire.NodeID]map[wire.NodeID]wire.Epoch{}
		modelClusters := func() []wire.NodeID {
			var out []wire.NodeID
			for ch, peers := range model {
				for id, last := range peers {
					if uint64(p.epoch)-uint64(last) > staleAfter {
						delete(peers, id)
					}
				}
				if len(peers) == 0 {
					delete(model, ch)
					continue
				}
				if ch == p.myCH {
					continue
				}
				if p.HearsCH(ch) {
					continue
				}
				out = append(out, ch)
			}
			slices.Sort(out)
			return out
		}
		// CH 1 is the host's own, 5 the host itself and 0 no CH at all:
		// digests naming them make no border peer.
		chs := []wire.NodeID{0, 1, 5, 7, 8, 9, 11, 12}
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(20); {
			case r < 12:
				ch, id := chs[rng.Intn(len(chs))], wire.NodeID(20+rng.Intn(30))
				e := p.epoch
				if rng.Intn(8) == 0 {
					e++ // not this epoch's digest: ignored
				}
				handle(p, h, &wire.Digest{NID: id, CH: ch, Epoch: e})
				if e == p.epoch && ch != 0 && ch != p.myCH && ch != 5 {
					if model[ch] == nil {
						model[ch] = map[wire.NodeID]wire.Epoch{}
					}
					model[ch][id] = p.epoch
				}
			case r < 14:
				ch := chs[3+rng.Intn(len(chs)-3)]
				handle(p, h, &wire.HealthUpdate{From: ch, CH: ch, Epoch: p.epoch})
			case r < 16:
				p.epoch += wire.Epoch(1 + rng.Intn(3))
			default:
				want := modelClusters()
				if got := p.AppendBorderClusters(nil); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: AppendBorderClusters = %v, model %v", seed, op, got, want)
				}
				if got := p.HasBorderClusters(); got != (len(want) > 0) {
					t.Fatalf("seed %d op %d: HasBorderClusters = %v, model %v", seed, op, got, want)
				}
			}
			for _, ch := range chs {
				for id := wire.NodeID(20); id < 50; id++ {
					_, want := model[ch][id]
					if got := p.IsBorderPeer(ch, id); got != want {
						t.Fatalf("seed %d op %d: IsBorderPeer(%v, %v) = %v, model %v", seed, op, ch, id, got, want)
					}
				}
			}
		}
	}
}

// TestBorderPeerRehearingAllocatesNothing pins the common reception: a
// digest from a border peer already held updates its entry in place.
func TestBorderPeerRehearingAllocatesNothing(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	digests := make([]*wire.Digest, 0, 24)
	for ch := wire.NodeID(7); ch < 10; ch++ {
		for id := wire.NodeID(20); id < 28; id++ {
			digests = append(digests, &wire.Digest{NID: id, CH: ch})
		}
	}
	hear := func() {
		for _, d := range digests {
			d.Epoch = p.epoch
			handle(p, h, d)
		}
	}
	hear()
	if n := p.BorderPeers(); n != len(digests) {
		t.Fatalf("%d border peers held, want %d", n, len(digests))
	}
	if n := testing.AllocsPerRun(20, func() { p.epoch++; hear() }); n != 0 {
		t.Errorf("re-hearing %d known border peers allocates %v times, want 0", len(digests), n)
	}
	if n := p.BorderPeers(); n != len(digests) {
		t.Errorf("%d border peers held after re-hearing, want %d", n, len(digests))
	}
}

func TestDirectCandidacyRefreshedByForeignUpdates(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	handle(p, h, &wire.HealthUpdate{From: 9, CH: 9, Epoch: p.epoch})
	if got := p.View().OtherCHs; len(got) != 1 {
		t.Fatalf("OtherCHs = %v", got)
	}
	// Keep hearing updates: candidacy must persist across epochs.
	for i := 0; i < 6; i++ {
		p.epoch++
		handle(p, h, &wire.HealthUpdate{From: 9, CH: 9, Epoch: p.epoch})
	}
	if got := p.View().OtherCHs; len(got) != 1 {
		t.Errorf("candidacy decayed despite fresh updates: %v", got)
	}
	// Stop hearing: candidacy ages out.
	p.epoch += 5
	if got := p.View().OtherCHs; len(got) != 0 {
		t.Errorf("candidacy survived silence: %v", got)
	}
}

func TestUpdateFromNonCHDoesNotCreateCandidacy(t *testing.T) {
	_, p, h := soloHost(t, 5)
	p.InstallStaticView(1, []wire.NodeID{1, 5}, nil, 5)
	// A takeover update has From != CH; only genuine CH transmissions
	// (From == CH) prove proximity to a clusterhead.
	handle(p, h, &wire.HealthUpdate{From: 7, CH: 9, Epoch: p.epoch, Takeover: true})
	if got := p.View().OtherCHs; len(got) != 0 {
		t.Errorf("OtherCHs = %v, want none", got)
	}
}

func TestDigestAffiliationCleanup(t *testing.T) {
	_, p, h := soloHost(t, 1)
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3}, nil, 1)
	// Member 3's digest names a different home cluster: drop it (F3).
	handle(p, h, &wire.Digest{NID: 3, CH: 9, Epoch: p.epoch})
	if p.View().IsMember(3) {
		t.Error("foreign-affiliated member not dropped")
	}
	// A digest naming us keeps the member and records coverage.
	handle(p, h, &wire.Digest{NID: 2, CH: 1, Epoch: p.epoch, Heard: []wire.NodeID{1, 3}})
	if !p.View().IsMember(2) {
		t.Error("own member dropped")
	}
}

func TestDCHRankingStability(t *testing.T) {
	_, p, _ := soloHost(t, 1)
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3, 4, 5}, nil, 1)

	// Feed several epochs of digest coverage: n2 consistently hears the
	// most, n3 second.
	feed := func(cov map[wire.NodeID]int) {
		for id, n := range cov {
			heard := make([]wire.NodeID, n)
			for i := range heard {
				heard[i] = wire.NodeID(100 + i)
			}
			p.epochCoverage[id] = len(heard)
		}
		p.foldCoverage()
		p.rankDCHs()
	}
	for i := 0; i < 5; i++ {
		feed(map[wire.NodeID]int{2: 4, 3: 3, 4: 1, 5: 1})
	}
	dchs := p.View().DCHs
	if len(dchs) != 2 || dchs[0] != 2 {
		t.Fatalf("DCHs = %v, want [n2 n3] (coverage order)", dchs)
	}

	// No duplicates, ever (regression: the hysteresis once produced
	// [n109 n109]).
	seen := map[wire.NodeID]bool{}
	for _, d := range dchs {
		if seen[d] {
			t.Fatalf("duplicate deputy in %v", dchs)
		}
		seen[d] = true
	}

	// One noisy epoch must not reshuffle the ranking (hysteresis).
	feed(map[wire.NodeID]int{2: 0, 3: 0, 4: 2, 5: 2})
	if got := p.View().DCHs; len(got) != 2 || got[0] != dchs[0] {
		t.Errorf("one noisy epoch flipped deputies: %v -> %v", dchs, got)
	}

	// A persistently dominant challenger eventually takes a seat.
	for i := 0; i < 12; i++ {
		feed(map[wire.NodeID]int{2: 4, 3: 0, 4: 8, 5: 0})
	}
	got := p.View().DCHs
	found := false
	for _, d := range got {
		if d == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("dominant challenger never seated: %v", got)
	}
}

func TestRankDCHsDropsFailedIncumbents(t *testing.T) {
	_, p, _ := soloHost(t, 1)
	p.InstallStaticView(1, []wire.NodeID{1, 2, 3, 4}, []wire.NodeID{2, 3}, 1)
	p.NoteFailed([]wire.NodeID{2})
	p.rankDCHs()
	for _, d := range p.View().DCHs {
		if d == 2 {
			t.Error("failed incumbent still a deputy")
		}
	}
	if len(p.View().DCHs) != 2 {
		t.Errorf("vacancy not refilled: %v", p.View().DCHs)
	}
}

func TestAnnounceEveryEpochRepairsStaleViews(t *testing.T) {
	// Full-stack check: a member that loses several announcements still
	// converges because the CH re-announces every epoch.
	k := sim.New(9)
	m := radio.New(k, radio.Defaults(0))
	positions := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}, {X: -30, Y: 0}}
	var protos []*Protocol
	for i, pos := range positions {
		h := node.New(k, m, wire.NodeID(i+1), pos)
		p := New(DefaultConfig())
		h.Use(p)
		protos = append(protos, p)
		h.Boot()
	}
	timing := DefaultTiming()
	k.RunUntil(timing.EpochStart(2))
	// Sever CH -> n2 for two epochs (n2's view goes stale), then restore.
	m.SetLinkLoss(1, 2, 1.0)
	k.RunUntil(timing.EpochStart(4))
	m.SetLinkLoss(1, 2, -1)
	k.RunUntil(timing.EpochStart(6))
	v1, v2 := protos[0].View(), protos[1].View()
	if len(v1.Members) != len(v2.Members) {
		t.Errorf("views diverged after repair: CH %v vs member %v", v1.Members, v2.Members)
	}
	if len(v2.DCHs) == 0 {
		t.Error("member never relearned the deputy list")
	}
}

func TestGWRankUnknownPair(t *testing.T) {
	_, p, _ := soloHost(t, 7)
	if _, _, ok := p.GWRank(1, 2); ok {
		t.Error("rank reported for a pair with no candidates")
	}
	if got := p.AppendGatewayCandidates(nil, 1, 2); len(got) != 0 {
		t.Errorf("candidates = %v, want none", got)
	}
}
