package fds

import (
	"testing"

	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// These tests cover the extensions layered on the paper's protocol:
// rescind propagation (with epoch pinning), orphan takeover, and the
// self-accusation handling rules. They reuse the world harness from
// fds_test.go.

func TestRescindPropagatesAcrossCluster(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 30}, star(8, 60))
	w.runUntilEpoch(2)
	// Silence n5 for one epoch: the CH detects it and announces; every
	// member learns of the "failure".
	w.kernel.At(w.timing.EpochStart(2)+w.midEpoch(), func() { w.medium.Silence(5, true) })
	w.runUntilEpoch(4)
	for i := 0; i < 4; i++ {
		if !w.fds[i].IsSuspected(5) {
			t.Fatalf("node %d never learned of the detection", i+1)
		}
	}
	// Restore: the CH hears n5 again, rescinds, and the rescission must
	// reach every member — not just the CH.
	w.kernel.At(w.timing.EpochStart(4)+w.midEpoch(), func() { w.medium.Silence(5, false) })
	w.runUntilEpoch(8)
	for i, f := range w.fds {
		if f.IsSuspected(5) {
			t.Errorf("node %d still suspects the rescinded n5", i+1)
		}
	}
}

// TestRescissionEpochPinning is the regression test for the echo bug: a
// rescission must never cancel a detection made AFTER it.
func TestRescissionEpochPinning(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 32}, star(8, 60))
	w.runUntilEpoch(3)
	f := w.fds[1] // an ordinary member
	// The member believes n7 failed, detected at epoch 5.
	f.view.MarkFailed(7, 5)
	// A relayed rescission pinned to epoch 3 (older detection) arrives.
	f.applyRescinds([]wire.Rescission{{Node: 7, Epoch: 3}})
	if !f.IsSuspected(7) {
		t.Fatal("old rescission cancelled a newer detection")
	}
	// A rescission pinned at (or after) the detection epoch does cancel.
	f.applyRescinds([]wire.Rescission{{Node: 7, Epoch: 5}})
	if f.IsSuspected(7) {
		t.Fatal("matching rescission did not cancel")
	}
}

// TestRescissionCarriesProofOfLifeEpoch is the regression test for the
// epoch-0 rescission: a rescuer that knew of the accusation only through a
// cumulative list holds a record at epoch 0, and a rescission pinned to THAT
// epoch is refused by everyone who learned the accusation through NewFailed
// (their record is newer). Pinned to the heartbeat's epoch it outranks both.
func TestRescissionCarriesProofOfLifeEpoch(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 39}, star(8, 60))
	w.runUntilEpoch(3)
	// The CH heard of n5's "failure" in somebody's AllFailed; n2, across the
	// ring and out of n5's earshot, heard the original NewFailed of epoch 2.
	w.fds[0].view.MarkFailed(5, 0)
	w.fds[1].view.MarkFailed(5, 2)
	w.runUntilEpoch(6)
	if w.fds[0].IsSuspected(5) {
		t.Fatal("CH never rescued n5 on its heartbeat")
	}
	if w.fds[1].IsSuspected(5) {
		t.Error("n2 refused the rescission: it was pinned to the rescuer's record epoch, not the heartbeat's")
	}
}

// TestReceivedRescissionIsNotReannounced: only the clusterhead that heard the
// heartbeat authors a rescission. A CH applying someone else's withdraws the
// suspicion, keeps the proof of life, and queues nothing for its own update —
// re-queuing is what made every clusterhead re-flood every rescission.
func TestReceivedRescissionIsNotReannounced(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 40}, star(8, 60))
	w.runUntilEpoch(3)
	ch := w.fds[0]
	ch.view.MarkFailed(77, 2)
	ch.applyRescinds([]wire.Rescission{{Node: 77, Epoch: 3}})
	if ch.IsSuspected(77) {
		t.Fatal("rescission not applied")
	}
	if len(ch.pendingRescind) != 0 {
		t.Errorf("received rescission re-queued for this CH's update: %v", ch.pendingRescind)
	}
	// The proof of life outlives the record: a stale cumulative list or an
	// accusation no newer than the proof cannot re-poison the view ...
	ch.Handle(w.hosts[0], &wire.FailureReport{OriginCH: 99, Seq: 4, Epoch: 4,
		AllFailed: []wire.NodeID{77}}, 99)
	ch.Handle(w.hosts[0], &wire.FailureReport{OriginCH: 98, Seq: 3, Epoch: 3,
		NewFailed: []wire.NodeID{77}}, 98)
	if ch.IsSuspected(77) {
		t.Error("stale accusation re-poisoned the view after the rescission")
	}
	// ... while a detection made after it is believed.
	ch.Handle(w.hosts[0], &wire.FailureReport{OriginCH: 98, Seq: 5, Epoch: 5,
		NewFailed: []wire.NodeID{77}}, 98)
	if !ch.IsSuspected(77) {
		t.Error("detection newer than the proof of life ignored")
	}
}

func TestGenuineDeathAfterRescindStillReported(t *testing.T) {
	// n5 is falsely detected (transient silence), rescinded... then really
	// crashes. The earlier rescission's echoes must not suppress the real
	// detection.
	w := buildWorld(t, worldConfig{seed: 33}, star(8, 60))
	w.runUntilEpoch(2)
	w.kernel.At(w.timing.EpochStart(2)+w.midEpoch(), func() { w.medium.Silence(5, true) })
	w.kernel.At(w.timing.EpochStart(3)+w.midEpoch(), func() { w.medium.Silence(5, false) })
	w.crashAtEpoch(4, 5, w.midEpoch()) // the real death, one epoch later
	w.runUntilEpoch(10)
	for i, f := range w.fds {
		if i == 4 {
			continue
		}
		if !f.IsSuspected(5) {
			t.Errorf("node %d does not know n5 really died", i+1)
		}
	}
}

func TestOrphanTakeoverReportsDeadCH(t *testing.T) {
	// Kill the CH and both deputies simultaneously: with the orphan
	// takeover the remaining members must still learn the CH failed.
	w := buildWorld(t, worldConfig{seed: 34}, star(7, 55))
	w.runUntilEpoch(2)
	dchs := w.cls[0].View().DCHs
	if len(dchs) != 2 {
		t.Fatalf("deputies = %v", dchs)
	}
	w.crashAtEpoch(0, 2, w.midEpoch())
	w.crashAtEpoch(int(dchs[0])-1, 2, w.midEpoch())
	w.crashAtEpoch(int(dchs[1])-1, 2, w.midEpoch())
	w.runUntilEpoch(12)
	unaware := 0
	for i := range w.fds {
		if w.hosts[i].Crashed() {
			continue
		}
		if !w.fds[i].IsSuspected(1) {
			unaware++
		}
	}
	// This world runs cluster+FDS only: a survivor that ends up outside
	// the orphan-takeover CH's radio range has no inter-cluster forwarder
	// to learn through, so allow at most one such hole here. The
	// full-stack variant in internal/scenario requires zero.
	if unaware > 1 {
		t.Errorf("%d survivors never learned the CH failed", unaware)
	}
	if w.tracer.Count(trace.TypeDetect) == 0 {
		t.Error("no detection traced")
	}
}

func TestForeignAccusationDoesNotDemote(t *testing.T) {
	// A foreign cluster's stale AllFailed listing this host must neither
	// persist in its view nor make it abandon its own cluster.
	w := buildWorld(t, worldConfig{seed: 36}, star(6, 50))
	w.runUntilEpoch(3)
	f := w.fds[2]
	before := w.cls[2].View()
	f.Handle(w.hosts[2], &wire.HealthUpdate{
		From: 99, CH: 99, Epoch: f.Epoch(),
		AllFailed: []wire.NodeID{3}, // lists this host (n3)
	}, 99)
	if f.IsSuspected(3) {
		t.Error("host believes itself failed")
	}
	after := w.cls[2].View()
	if !after.Marked || after.CH != before.CH {
		t.Errorf("foreign accusation demoted the host: %+v", after)
	}
}

func TestOwnClusterAccusationDemotesAndResubscribes(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 37}, star(6, 50))
	w.runUntilEpoch(2)
	// Silence n4 for one epoch so its own CH disowns it, then restore.
	w.kernel.At(w.timing.EpochStart(2)+w.midEpoch(), func() { w.medium.Silence(4, true) })
	w.kernel.At(w.timing.EpochStart(3)+w.midEpoch(), func() { w.medium.Silence(4, false) })
	w.runUntilEpoch(8)
	v := w.cls[3].View()
	if !v.Marked || v.CH != 1 {
		t.Errorf("n4 never re-subscribed: %+v", v)
	}
	if w.fds[0].IsSuspected(4) {
		t.Error("CH still suspects the re-admitted n4")
	}
}

func TestCurrentUpdate(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 38}, star(5, 50))
	w.runUntilEpoch(2)
	w.kernel.RunUntil(w.timing.EpochStart(2) + w.timing.R3End())
	up, ok := w.fds[0].CurrentUpdate() // the CH's own update
	if !ok {
		t.Fatal("CH has no current update after R3")
	}
	if up.From != 1 || up.Epoch != 2 {
		t.Errorf("update = %+v", up)
	}
	upM, okM := w.fds[1].CurrentUpdate() // a member's received copy
	if !okM || upM.From != 1 {
		t.Errorf("member update = %+v ok=%v", upM, okM)
	}
}
