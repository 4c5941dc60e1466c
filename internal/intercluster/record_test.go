package intercluster

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// TestReportRecordSizes pins the per-report records to their allocation
// size classes: a field added to either moves every report a host keeps
// into the next class up.
func TestReportRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(reportState{}); got > 128 {
		t.Errorf("reportState is %d B, want <= 128", got)
	}
	if got := unsafe.Sizeof(gwDuty{}); got > 48 {
		t.Errorf("gwDuty is %d B, want <= 48", got)
	}
}

// TestRecycledReportCarriesNothing retires a news report's state with
// duties, senders and rescissions, reuses the record for a cumulative-only
// report, and checks that nothing of the first occupant shows in the second.
func TestRecycledReportCarriesNothing(t *testing.T) {
	w := buildWorld(t, 12, 0, nil, threeClusterChain())
	w.runUntilEpoch(2)
	fw := w.stacks[1].Forwarder // CH B
	e := uint64(fw.epoch)

	st := fw.getState(&wire.FailureReport{
		OriginCH: 1, Seq: e, Epoch: wire.Epoch(e), Sender: 6, TargetCH: 2,
		NewFailed: []wire.NodeID{8}, AllFailed: []wire.NodeID{8, 9},
		Rescinded: []wire.Rescission{{Node: 4, Epoch: 1}},
	})
	if st.cumulativeOnly() {
		t.Fatal("a report with news reads as cumulative-only")
	}
	st.addSender(6)
	st.addSender(3)
	released, pending := st.addDuty(3), st.addDuty(7)
	released.release()
	pending.forwarded, pending.n = 1, 4
	st.rebroadcast, st.retriesLeft = true, CHRetries

	fw.epoch += reportEpochs
	fw.retire()
	if fw.state(1, e) != nil || !fw.pooled(st) {
		t.Fatal("the first occupant did not retire to the free list")
	}

	seq := e + reportEpochs
	again := fw.getState(&wire.FailureReport{
		OriginCH: 3, Seq: seq, Epoch: wire.Epoch(seq), Sender: 3,
		AllFailed: []wire.NodeID{8},
	})
	if again != st {
		t.Fatalf("the cumulative-only report took record %p, want the pooled %p", again, st)
	}
	if !st.cumulativeOnly() {
		t.Error("the second occupant is not cumulative-only")
	}
	if st.origin != 3 || st.seq != seq || st.epoch != wire.Epoch(seq) {
		t.Errorf("identity (%v, %d, %d), want (n3, %d, %d)", st.origin, st.seq, st.epoch, seq, seq)
	}
	if len(st.newFailed()) != 0 || !slices.Equal(st.allFailed(), []wire.NodeID{8}) || len(st.rescinded) != 0 {
		t.Errorf("lists new %v all %v rescinded %v, want [] [n8] []", st.newFailed(), st.allFailed(), st.rescinded)
	}
	if n := st.senders.Count(); n != 0 || st.sender(6) || st.sender(3) {
		t.Errorf("%d senders survived retirement (n6 %v, n3 %v)", n, st.sender(6), st.sender(3))
	}
	if st.engaged != nil || st.armed != 0 || st.rebroadcast || st.retriesLeft != 0 {
		t.Errorf("engaged %p, armed %d, rebroadcast %v, retries %d; want nil, 0, false, 0",
			st.engaged, st.armed, st.rebroadcast, st.retriesLeft)
	}
	// The retired duties come back for the new occupant with nothing set.
	for _, target := range []wire.NodeID{3, 7} {
		d := st.addDuty(target)
		if d != released && d != pending {
			t.Errorf("duty toward n%d is fresh, want a recycled one", target)
		}
		if d.done() || d.kind != 0 || d.forwarded != 0 || d.n != 0 || d.timer.Active() {
			t.Errorf("recycled duty toward n%d: done %v kind %#x forwarded %d n %d",
				target, d.done(), d.kind, d.forwarded, d.n)
		}
	}

	fw.send(st, wire.NoNode, trace.TypeReportForward, "catch-up")
	tx := fw.txMsg
	if len(tx.NewFailed) != 0 || len(tx.Rescinded) != 0 {
		t.Errorf("transmitted NewFailed %v, Rescinded %v; want both empty", tx.NewFailed, tx.Rescinded)
	}
	if tx.OriginCH != 3 || tx.Seq != seq || tx.Epoch != wire.Epoch(seq) || tx.Sender != 2 ||
		tx.TargetCH != wire.NoNode || !slices.Equal(tx.AllFailed, []wire.NodeID{8}) {
		t.Errorf("transmitted %+v", tx)
	}
}

// TestSenderQueriesMatchSliceModel checks a report's sender set against the
// plain list it replaced: on hosts of every role on the chain, senders are
// added in shuffled orders, some repeated and some never heard before, and
// after each addition sender, targetHasReport and clusterHasReport must
// answer as a linear scan of the list does. Both walks only ask whether a
// sender exists, so the set's interning order must not matter.
func TestSenderQueriesMatchSliceModel(t *testing.T) {
	w := buildWorld(t, 3, 0, nil, threeClusterChain())
	w.runUntilEpoch(4)
	rng := rand.New(rand.NewSource(1))
	pool := []wire.NodeID{40, 41} // never heard on the chain
	for i := range w.hosts {
		pool = append(pool, wire.NodeID(i+1))
	}
	chs := []wire.NodeID{1, 2, 3}
	var border, member [2]int // [false, true] answers that rest on the list's walk
	for _, s := range w.stacks {
		fw, cl := s.Forwarder, s.Cluster
		for order := 0; order < 20; order++ {
			st := &reportState{p: fw}
			var model []wire.NodeID
			for _, id := range append(rng.Perm(len(pool)), rng.Perm(len(pool))[:4]...) {
				id := pool[id]
				st.addSender(id)
				if !slices.Contains(model, id) {
					model = append(model, id)
				}
				for _, q := range pool {
					if st.sender(q) != slices.Contains(model, q) {
						t.Fatalf("n%v after %v: sender(%v) = %v", fw.host.ID(), model, q, st.sender(q))
					}
				}
				for _, target := range chs {
					want := slices.Contains(model, target) || slices.ContainsFunc(model, func(s wire.NodeID) bool {
						return cl.IsBorderPeer(target, s)
					})
					if got := fw.targetHasReport(st, target); got != want {
						t.Fatalf("n%v after %v: targetHasReport(%v) = %v, want %v", fw.host.ID(), model, target, got, want)
					}
					if !slices.Contains(model, target) {
						border[b2i(want)]++
					}
				}
				want := slices.Contains(model, cl.CH()) || slices.ContainsFunc(model, func(s wire.NodeID) bool {
					return s != fw.host.ID() && cl.IsMember(s)
				})
				if got := fw.clusterHasReport(st); got != want {
					t.Fatalf("n%v after %v: clusterHasReport = %v, want %v", fw.host.ID(), model, got, want)
				}
				if !slices.Contains(model, cl.CH()) {
					member[b2i(want)]++
				}
			}
		}
	}
	t.Logf("walks over the senders answered false/true: targetHasReport %v, clusterHasReport %v", border, member)
	if min(border[0], border[1], member[0], member[1]) == 0 {
		t.Error("a query never answered one way: the chain no longer exercises it")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
