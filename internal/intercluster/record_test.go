package intercluster

import (
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
	fw := w.fwds[1] // CH B
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
	if len(st.senders) != 0 || st.sender(6) || st.sender(3) {
		t.Errorf("senders %v survived retirement", st.senders)
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
