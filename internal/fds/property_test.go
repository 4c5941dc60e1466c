package fds

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"clusterfds/internal/cluster"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// newBenchProtocol builds an isolated FDS on a single silent host with a
// static cluster view, for unit-level rule driving.
func newBenchProtocol(t *testing.T, self wire.NodeID, members []wire.NodeID, dchs []wire.NodeID) (*Protocol, *node.Host, *sim.Kernel) {
	t.Helper()
	k := sim.New(int64(self) + 1000)
	m := radio.New(k, radio.Defaults(0))
	h := node.New(k, m, self, geo.Point{})
	cl := cluster.New(cluster.DefaultConfig())
	cl.InstallStaticView(1, members, dchs, self)
	f := New(DefaultConfig(cluster.DefaultTiming()), cl)
	h.Use(cl)
	h.Use(f)
	h.Boot()
	// Run to the start of epoch 0 so the FDS snapshot is installed.
	k.RunUntil(0)
	return f, h, k
}

// TestDetectionRuleProperty drives the CH's rule with random evidence
// patterns and checks the outcome against a direct transcription of the
// paper's rule: v is failed iff no heartbeat, no digest from v, and no
// digest listing v.
func TestDetectionRuleProperty(t *testing.T) {
	members := []wire.NodeID{1, 2, 3, 4, 5, 6}
	check := func(hbBits, dgBits uint8, listedBits uint8) bool {
		f, h, k := newBenchProtocol(t, 1, members, nil)
		// Synthesize epoch-0 evidence for members 2..6 from the bit masks.
		for i, v := range []wire.NodeID{2, 3, 4, 5, 6} {
			if hbBits&(1<<i) != 0 {
				f.Handle(h, &wire.Heartbeat{NID: v, Epoch: 0, Marked: true}, v)
			}
			if dgBits&(1<<i) != 0 {
				heard := []wire.NodeID{}
				for j, u := range []wire.NodeID{2, 3, 4, 5, 6} {
					if u != v && listedBits&(1<<j) != 0 {
						heard = append(heard, u)
					}
				}
				f.Handle(h, &wire.Digest{NID: v, CH: 1, Epoch: 0, Heard: heard}, v)
			}
		}
		// Run the epoch through R3 so detectAndAnnounce fires.
		k.RunUntil(cluster.DefaultTiming().R3End())

		for i, v := range []wire.NodeID{2, 3, 4, 5, 6} {
			gotHB := hbBits&(1<<i) != 0
			gotDG := dgBits&(1<<i) != 0
			listedByOther := false
			if listedBits&(1<<i) != 0 {
				// v is listed in the digests of every OTHER member that
				// delivered one.
				for j := range []wire.NodeID{2, 3, 4, 5, 6} {
					if j != i && dgBits&(1<<j) != 0 {
						listedByOther = true
					}
				}
			}
			wantFailed := !gotHB && !gotDG && !listedByOther
			if f.IsSuspected(v) != wantFailed {
				t.Logf("v=%v hb=%v dg=%v listed=%v: got %v want %v",
					v, gotHB, gotDG, listedByOther, f.IsSuspected(v), wantFailed)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestForwardWaitUniqueAndOrdered: peers' waiting periods must be unique
// and ordered by member-list position, the paper's requirement for the
// energy-balanced backoff.
func TestForwardWaitUniqueAndOrdered(t *testing.T) {
	members := make([]wire.NodeID, 20)
	for i := range members {
		members[i] = wire.NodeID(i + 1)
	}
	var waits []sim.Time
	for _, self := range members[1:] { // non-CH members
		f, _, _ := newBenchProtocol(t, self, members, nil)
		waits = append(waits, f.forwardWait())
	}
	seen := map[sim.Time]wire.NodeID{}
	prev := sim.Time(-1)
	for i, w := range waits {
		if other, dup := seen[w]; dup {
			t.Fatalf("members %v and %v share waiting period %v", members[i+1], other, w)
		}
		seen[w] = members[i+1]
		if w <= prev {
			t.Fatalf("waiting periods not increasing with member rank: %v after %v", w, prev)
		}
		prev = w
	}
	// Slot spacing must cover a forward+ack round trip.
	minGap := waits[1] - waits[0]
	params := radio.Defaults(0)
	if minGap < 2*(params.MaxDelay)+sim.Time(cluster.DefaultTiming().Thop) {
		t.Errorf("slot gap %v too small to cover forward+ack", minGap)
	}
}

// TestDigestListsOnlyClusterMembers: heard heartbeats from outsiders must
// not leak into the digest.
func TestDigestListsOnlyClusterMembers(t *testing.T) {
	f, h, k := newBenchProtocol(t, 2, []wire.NodeID{1, 2, 3}, nil)
	f.Handle(h, &wire.Heartbeat{NID: 3, Epoch: 0, Marked: true}, 3)
	f.Handle(h, &wire.Heartbeat{NID: 77, Epoch: 0, Marked: true}, 77) // outsider
	_ = k
	heardSet := map[wire.NodeID]bool{}
	f.heardHB.ForEach(func(i uint32) { heardSet[f.ids.NodeID(i)] = true })
	if !heardSet[77] {
		t.Fatal("outsider heartbeat not even recorded (test setup broken)")
	}
	// Build the digest the way sendDigest would.
	var inDigest []wire.NodeID
	f.heardHB.ForEach(func(i uint32) {
		if id := f.ids.NodeID(i); f.snapshot.IsMember(id) {
			inDigest = append(inDigest, id)
		}
	})
	for _, id := range inDigest {
		if id == 77 {
			t.Error("outsider leaked into the digest")
		}
	}
}

// TestStaleEpochEvidenceIgnored: evidence stamped with the wrong epoch must
// not count.
func TestStaleEpochEvidenceIgnored(t *testing.T) {
	f, h, k := newBenchProtocol(t, 1, []wire.NodeID{1, 2, 3}, nil)
	f.Handle(h, &wire.Heartbeat{NID: 2, Epoch: 99, Marked: true}, 2) // wrong epoch
	f.Handle(h, &wire.Digest{NID: 3, CH: 1, Epoch: 99}, 3)           // wrong epoch
	k.RunUntil(cluster.DefaultTiming().R3End())
	if !f.IsSuspected(2) || !f.IsSuspected(3) {
		t.Error("stale-epoch evidence prevented detection")
	}
}

// TestSleepExcusalExpires: an excusal must lapse after the declared wake
// epoch plus grace, after which silence is failure again.
func TestSleepExcusalExpires(t *testing.T) {
	f, h, _ := newBenchProtocol(t, 1, []wire.NodeID{1, 2, 3}, nil)
	f.Handle(h, &wire.SleepNotice{NID: 2, Epoch: 0, Until: 2}, 2)
	if !f.excused(2, 1) || !f.excused(2, 2) {
		t.Error("announced sleeper not excused through its nap + grace")
	}
	if f.excused(2, 3) {
		t.Error("excusal never expired")
	}
	// Malformed notices are ignored.
	f.Handle(h, &wire.SleepNotice{NID: 3, Epoch: 5, Until: 5}, 3)
	if f.excused(3, 5) {
		t.Error("malformed notice granted an excusal")
	}
}

// TestEvidenceKeyedBySharedInterner: fds keys its evidence by the cluster
// layer's interner, which has handed out indices of its own (unmarked
// heartbeats, gateway candidates) before fds hears its first member. Every
// per-index table must answer for an index far beyond the number of IDs fds
// itself has heard, and the digest must list exactly the members heard.
func TestEvidenceKeyedBySharedInterner(t *testing.T) {
	// Host 2 is a deputy: it folds digests like the CH, and answers forward
	// requests and sends digests like any member.
	f, h, _ := newBenchProtocol(t, 2, []wire.NodeID{1, 2, 3, 4, 5, 6}, []wire.NodeID{2})
	const foreign = 150
	for i := 0; i < foreign; i++ {
		f.cluster.Handle(h, &wire.Heartbeat{NID: wire.NodeID(1000 + i), Epoch: 0}, wire.NodeID(1000+i))
		gw := wire.NodeID(2000 + i)
		f.cluster.Handle(h, &wire.GWRegister{GW: gw, AffiliateCH: 900, OtherCHs: []wire.NodeID{901}}, gw)
	}
	if f.ids.Len() != 2*foreign {
		t.Fatalf("cluster layer interned %d IDs, want %d (test setup broken)", f.ids.Len(), 2*foreign)
	}

	for _, v := range []wire.NodeID{1, 3, 4, 77} { // 77 is heard but no member
		f.Handle(h, &wire.Heartbeat{NID: v, Epoch: 0, Marked: true}, v)
	}
	f.Handle(h, &wire.Digest{NID: 3, CH: 1, Epoch: 0, Heard: []wire.NodeID{1, 5}}, 3)
	for id, want := range map[wire.NodeID]bool{1: true, 3: true, 4: true, 77: true, 5: false, 6: false, 1000: false, 2000: false} {
		if got := f.hbHeard(id); got != want {
			t.Errorf("hbHeard(%v) = %v, want %v", id, got, want)
		}
	}
	for id, want := range map[wire.NodeID]bool{1: true, 3: true, 4: true, 5: true, 6: false, 1000: false, 2000: false, 4242: false} {
		if got := f.anyEvidence(id); got != want {
			t.Errorf("anyEvidence(%v) = %v, want %v", id, got, want)
		}
	}

	f.Handle(h, &wire.SleepNotice{NID: 6, Epoch: 0, Until: 2}, 6)
	if !f.excused(6, 1) || f.excused(5, 1) || f.excused(1000, 1) || f.SleepExcusals() != 1 {
		t.Errorf("sleep excusals: 6 %v, 5 %v, 1000 %v, %d recorded; want only 6 excused",
			f.excused(6, 1), f.excused(5, 1), f.excused(1000, 1), f.SleepExcusals())
	}

	f.Handle(h, &wire.HealthUpdate{From: 1, CH: 1, Epoch: 0}, 1)
	f.Handle(h, &wire.ForwardRequest{NID: 5, Epoch: 0}, 5)
	f.Handle(h, &wire.ForwardRequest{NID: 5, Epoch: 0}, 5) // already armed
	f.Handle(h, &wire.ForwardRequest{NID: 6, Epoch: 0}, 6)
	if n := f.armedForwards(); n != 2 {
		t.Errorf("%d forwards pending after requests from 5 (twice) and 6, want 2", n)
	}
	f.Handle(h, &wire.ForwardAck{NID: 1000, Epoch: 0}, 1000) // interned by the cluster layer, never a requester
	f.Handle(h, &wire.ForwardAck{NID: 5, Epoch: 0}, 5)
	if n := f.armedForwards(); n != 1 {
		t.Errorf("%d forwards pending after 5's ack, want 6's alone", n)
	}

	f.sendDigest(0)
	if got, want := f.digestMsg.Heard, []wire.NodeID{1, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("digest lists %v, want the members heard %v", got, want)
	}
}
