package fds

import (
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// The paper's Section 4.2 has two judges: the clusterhead applies the
// detection rule, a deputy the CH-failure rule. Only they read the evidence a
// digest's Heard list carries, so only they fold it (Protocol.judging). These
// tests pin both halves: the judges still see every digest, and nobody reads
// evidence on a host that did not collect it.

// TestDeputyHeedsDigestEvidence: a deputy that heard nothing from the CH —
// no heartbeat, no digest, no update — must not take over when some member's
// digest lists the CH as heard, and must when none does.
func TestDeputyHeedsDigestEvidence(t *testing.T) {
	members := []wire.NodeID{1, 2, 3, 4}
	for _, vouched := range []bool{true, false} {
		f, h, k := newBenchProtocol(t, 2, members, []wire.NodeID{2})
		heard := []wire.NodeID{2, 4}
		if vouched {
			heard = append(heard, 1)
		}
		f.Handle(h, &wire.Digest{NID: 3, CH: 1, Epoch: 0, Heard: heard}, 3)
		k.RunUntil(cluster.DefaultTiming().R3End() + cluster.DefaultTiming().Thop)
		if f.IsSuspected(1) == vouched {
			t.Errorf("CH vouched for by a digest: %v, judged failed by its deputy: %v", vouched, f.IsSuspected(1))
		}
	}
}

// TestOnlyJudgesFoldDigests delivers one digest to a clusterhead, a deputy
// and an ordinary member. All three record that the sender's digest arrived;
// only the first two fold its Heard list, and the member does not so much as
// intern the NIDs in it.
func TestOnlyJudgesFoldDigests(t *testing.T) {
	members := []wire.NodeID{1, 2, 3, 4, 5}
	const stranger = wire.NodeID(777) // listed in the digest, heard nowhere else
	for _, c := range []struct {
		role  string
		self  wire.NodeID
		judge bool
	}{{"clusterhead", 1, true}, {"deputy", 2, true}, {"member", 4, false}} {
		f, h, _ := newBenchProtocol(t, c.self, members, []wire.NodeID{2})
		f.Handle(h, &wire.Digest{NID: 3, CH: 1, Epoch: 0, Heard: []wire.NodeID{5, stranger}}, 3)
		if f.judging != c.judge {
			t.Errorf("%s: judging = %v, want %v", c.role, f.judging, c.judge)
		}
		if i, ok := f.ids.Lookup(3); !ok || !f.digestFrom.Get(i) {
			t.Errorf("%s: the sender's digest is not recorded in digestFrom", c.role)
		}
		_, interned := f.ids.Lookup(stranger)
		if folded := f.aliveInDigest.Count() > 0; folded != c.judge || interned != c.judge {
			t.Errorf("%s: Heard folded = %v, its NIDs interned = %v; want both %v", c.role, folded, interned, c.judge)
		}
	}
}

// TestMemberWorkIndependentOfDigestLength hands a host a digest as the
// transports do — decoded into a scratch, its list still in the datagram — for
// lists of 10, 100 and 1,000 IDs. The member does the same work for each: no
// allocation, nothing interned, and the scratch's ID arena not written (a list
// carved from it just before still reads as it did). The clusterhead beside it
// is the control that the probe can see a list being decoded.
func TestMemberWorkIndependentOfDigestLength(t *testing.T) {
	members := []wire.NodeID{1, 2, 3, 4, 5}
	for _, n := range []int{10, 100, 1000} {
		for _, self := range []wire.NodeID{4, 1} {
			f, h, _ := newBenchProtocol(t, self, members, []wire.NodeID{2})
			marker := make([]wire.NodeID, n) // n sevens
			listed := make([]wire.NodeID, n) // n strangers, from 10001 up
			for i := range listed {
				marker[i], listed[i] = 7, wire.NodeID(10001+i)
			}
			scratch := wire.NewDecodeScratch()
			decode := func(heard []wire.NodeID) *wire.Digest {
				m, err := wire.DecodeInto(scratch, wire.Encode(&wire.Digest{NID: 3, CH: 1, Epoch: 0, Heard: heard}))
				if err != nil {
					t.Fatal(err)
				}
				return m.(*wire.Digest)
			}
			carved := decode(marker).HeardIDs() // the arena's first n slots, which the next list read would reuse
			d := decode(listed)
			f.Handle(h, d, 3)
			interned := f.ids.Len()
			allocs := testing.AllocsPerRun(20, func() { f.Handle(h, d, 3) })
			read := carved[0] != 7
			switch {
			case f.judging && (!read || interned < n):
				t.Errorf("clusterhead, %d IDs: list decoded = %v, %d IDs interned; the control saw no list", n, read, interned)
			case !f.judging && (read || allocs != 0 || interned > len(members)):
				t.Errorf("member, %d IDs: list decoded = %v, %.0f allocs per digest, %d IDs interned; want false, 0, at most %d",
					n, read, allocs, interned, len(members))
			}
		}
	}
}

// TestEvidenceOnlyConsultedByJudges is the property that keeps the gate
// honest: along every path on which some host comes to apply a rule — the
// standing CH, a deputy whose CH died, the second deputy after the first
// stayed silent, a member promoted by orphan takeover, a reformed cluster's
// new CH — that host folded digests in the epoch it judges. A rule reader
// added on any other host would read an empty aliveInDigest and fail here
// rather than quietly detect everyone.
func TestEvidenceOnlyConsultedByJudges(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		radius  float64
		loss    float64
		crash   func(dchs []wire.NodeID) []wire.NodeID
		want    trace.EventType // must have been traced, so the path was walked
		toEpoch wire.Epoch
	}{
		{name: "CH crash, first deputy takes over", n: 8, radius: 60, want: trace.TypeTakeover, toEpoch: 5,
			crash: func([]wire.NodeID) []wire.NodeID { return []wire.NodeID{1} }},
		{name: "deputy cascade, rank 2 acts after rank 1 is silent", n: 9, radius: 55, want: trace.TypeTakeover, toEpoch: 6,
			crash: func(d []wire.NodeID) []wire.NodeID { return []wire.NodeID{1, d[0]} }},
		{name: "orphans reform", n: 6, radius: 50, want: trace.TypeDetect, toEpoch: 12,
			crash: func(d []wire.NodeID) []wire.NodeID { return append([]wire.NodeID{1}, d...) }},
		{name: "orphan takeover", n: 6, radius: 50, want: trace.TypeTakeover, toEpoch: 12,
			crash: func(d []wire.NodeID) []wire.NodeID { return append([]wire.NodeID{1}, d...) }},
		{name: "lossy cluster, false detections and rescues", n: 12, radius: 60, loss: 0.3, want: trace.TypeDetect, toEpoch: 12,
			crash: func([]wire.NodeID) []wire.NodeID { return []wire.NodeID{5} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			evidence := ProbeEvidence(t)
			w := buildWorld(t, worldConfig{seed: 21, lossProb: c.loss}, star(c.n, c.radius))
			w.runUntilEpoch(2)
			for _, id := range c.crash(w.cls[0].View().DCHs) {
				w.crashAtEpoch(int(id)-1, 2, w.midEpoch())
			}
			w.runUntilEpoch(c.toEpoch)
			if w.tracer.Count(c.want) == 0 {
				t.Fatalf("no %v traced: the scenario did not walk its path", c.want)
			}
			evidence.Check(t)
		})
	}

	// The static view the Monte-Carlo harness installs: judged by role, not
	// by how the role was reached.
	t.Run("static view", func(t *testing.T) {
		evidence := ProbeEvidence(t)
		members := []wire.NodeID{1, 2, 3, 4}
		for _, self := range members {
			_, _, k := newBenchProtocol(t, self, members, []wire.NodeID{2, 3})
			k.RunUntil(cluster.DefaultTiming().Interval - 1)
		}
		evidence.Check(t)
	})
}
