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
// duplicates — beside the map it replaced. After each step the protocol
// answers membership as the map does, View().Members is the map's keys in
// strictly ascending order, and the View taken before the step still reads
// what it read then: a View is a copy, not a window onto the slice being
// edited (the two-generation contract, here across at most one arena flip).
func TestMembersAgainstMapModel(t *testing.T) {
	const span = 48 // small ID space, so re-adds and deletes of absentees are common
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, p, _ := soloHost(t, 1)
		model := map[wire.NodeID]bool{}
		randomList := func() []wire.NodeID {
			ids := make([]wire.NodeID, rng.Intn(span))
			for i := range ids {
				ids[i] = wire.NodeID(2 + rng.Intn(span))
			}
			return ids
		}
		install := func() {
			ids := randomList()
			p.InstallStaticView(1, ids, nil, 1)
			clear(model)
			model[1] = true
			for _, id := range ids {
				model[id] = true
			}
		}
		install()
		for step := 0; step < 400; step++ {
			before := p.View()
			held := slices.Clone(before.Members)
			if rng.Intn(8) == 0 {
				p.arena.flip() // an epoch boundary, as runEpoch does it
				p.invalidateView()
			}
			id := wire.NodeID(2 + rng.Intn(span))
			switch op := rng.Intn(10); {
			case op < 4:
				p.Readmit(id)
				model[id] = true
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
			default:
				p.Demote()
				if len(p.View().Members) != 0 || p.hasMember(1) {
					t.Fatalf("seed %d step %d: Demote left members %v", seed, step, p.View().Members)
				}
				install()
			}

			got := p.View().Members
			if len(got) != len(model) {
				t.Fatalf("seed %d step %d: %d members %v, model has %d", seed, step, len(got), got, len(model))
			}
			for i, m := range got {
				if !model[m] || (i > 0 && got[i-1] >= m) {
					t.Fatalf("seed %d step %d: Members %v: not the model's keys in ascending order", seed, step, got)
				}
			}
			for probe := wire.NodeID(0); probe < span+4; probe++ {
				if p.hasMember(probe) != model[probe] || p.View().IsMember(probe) != model[probe] {
					t.Fatalf("seed %d step %d: membership of %v: protocol %v, view %v, model %v",
						seed, step, probe, p.hasMember(probe), p.View().IsMember(probe), model[probe])
				}
			}
			if !slices.Equal(before.Members, held) {
				t.Fatalf("seed %d step %d: a View taken before the step changed under it:\n was %v\n now %v", seed, step, held, before.Members)
			}
		}
	}
}
