package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"clusterfds/internal/wire"
)

// TestMembersAgainstMapModel drives the sorted-slice membership through
// seeded sequences of every way it changes — add, delete, clear,
// setMembersFromAnnounce and InstallStaticView, fed unsorted lists with
// duplicates — beside the map it replaced, and the sorted foreign-CH list
// through hearings and epoch advances beside a map of last-heard epochs.
// After each step the protocol answers membership as the map does,
// View().Members is the map's keys in strictly ascending order, every
// accessor agrees with a fresh View, OtherCHs is the foreign CHs heard within
// staleAfter epochs, and the View taken before the step still reads what it
// read then: a View is a copy, not a window onto the slice being edited.
func TestMembersAgainstMapModel(t *testing.T) {
	const span = 48 // small ID space, so re-adds and deletes of absentees are common
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, p, h := soloHost(t, 1)
		model := map[wire.NodeID]bool{}
		heard := map[wire.NodeID]wire.Epoch{} // foreign CH -> epoch last heard
		isCH := false
		randomList := func() []wire.NodeID {
			ids := make([]wire.NodeID, rng.Intn(span))
			for i := range ids {
				ids[i] = wire.NodeID(2 + rng.Intn(span))
			}
			return ids
		}
		// The host, n1, heads the cluster or is a member of n2's, possibly
		// as its deputy.
		install := func() {
			ids := randomList()
			ch := wire.NodeID(1 + rng.Intn(2))
			var dchs []wire.NodeID
			if ch != 1 && rng.Intn(2) == 0 {
				dchs = []wire.NodeID{1}
			}
			p.InstallStaticView(ch, ids, dchs, 1)
			isCH = ch == 1
			clear(model)
			model[ch] = true
			for _, id := range ids {
				model[id] = true
			}
		}
		install()
		for step := 0; step < 400; step++ {
			before := p.View()
			held := slices.Clone(before.Members)
			id := wire.NodeID(2 + rng.Intn(span))
			switch op := rng.Intn(12); {
			case op < 4:
				p.Readmit(id)
				if isCH {
					model[id] = true
				}
			case op < 7:
				p.NoteFailed([]wire.NodeID{id, id})
				delete(model, id)
			case op == 7:
				ann := &wire.ClusterAnnounce{CH: 1, Members: randomList()}
				p.setMembersFromAnnounce(ann)
				clear(model)
				model[1] = true
				for _, m := range ann.Members {
					model[m] = true
				}
			case op == 8:
				install()
			case op == 9:
				p.Demote()
				if len(p.View().Members) != 0 || p.hasMember(1) {
					t.Fatalf("seed %d step %d: Demote left members %v", seed, step, p.View().Members)
				}
				install()
			case op == 10:
				f := wire.NodeID(100 + rng.Intn(6))
				handle(p, h, &wire.HealthUpdate{From: f, CH: f, Epoch: p.epoch})
				heard[f] = p.epoch
			default:
				p.beginEpoch(p.epoch + wire.Epoch(1+rng.Intn(3)))
			}

			v := p.View()
			got := v.Members
			if len(got) != len(model) {
				t.Fatalf("seed %d step %d: %d members %v, model has %d", seed, step, len(got), got, len(model))
			}
			for i, m := range got {
				if !model[m] || (i > 0 && got[i-1] >= m) {
					t.Fatalf("seed %d step %d: Members %v: not the model's keys in ascending order", seed, step, got)
				}
			}
			for probe := wire.NodeID(0); probe < span+4; probe++ {
				if p.IsMember(probe) != model[probe] || v.IsMember(probe) != model[probe] {
					t.Fatalf("seed %d step %d: membership of %v: protocol %v, view %v, model %v",
						seed, step, probe, p.IsMember(probe), v.IsMember(probe), model[probe])
				}
			}
			if p.Marked() != v.Marked || p.CH() != v.CH || p.IsCH() != v.IsCH || p.IsCH() != isCH ||
				p.IsDeputy() != slices.Contains(v.DCHs, 1) || p.IsGW() != v.IsGW() ||
				!slices.Equal(p.AppendOtherCHs(nil), v.OtherCHs) {
				t.Fatalf("seed %d step %d: accessors disagree with View %+v", seed, step, v)
			}
			var fresh []wire.NodeID
			for f, last := range heard {
				if uint64(p.epoch)-uint64(last) <= staleAfter {
					fresh = append(fresh, f)
				}
			}
			slices.Sort(fresh)
			if !slices.Equal(v.OtherCHs, fresh) {
				t.Fatalf("seed %d step %d: OtherCHs %v, want %v", seed, step, v.OtherCHs, fresh)
			}
			for probe := wire.NodeID(99); probe < 107; probe++ {
				if p.HearsCH(probe) != slices.Contains(fresh, probe) {
					t.Fatalf("seed %d step %d: HearsCH(%v) = %v, OtherCHs %v", seed, step, probe, p.HearsCH(probe), fresh)
				}
			}
			if !slices.Equal(before.Members, held) {
				t.Fatalf("seed %d step %d: a View taken before the step changed under it:\n was %v\n now %v", seed, step, held, before.Members)
			}
		}
	}
}
