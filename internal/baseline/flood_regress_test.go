package baseline

import (
	"testing"
	"time"

	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Regression: the dedup state must stay O(population), not O(heartbeats ever
// heard). The original implementation kept one map entry per (origin, seq)
// forever, so a 6-node clique running 120 intervals held ~600 entries; the
// per-origin window holds exactly one record per peer.
func TestFloodDedupStateBounded(t *testing.T) {
	pts := clique(6)
	w := buildFlood(t, 11, 0, pts)
	w.kernel.RunUntil(sim.Time(120 * time.Second))
	for i, d := range w.dets {
		f := d.(*Flood)
		if got := f.dedupStateSize(); got > len(pts) {
			t.Errorf("node %d dedup state has %d records after 120 intervals; want <= %d (population)",
				i+1, got, len(pts))
		}
		if f.KnownPopulation() != len(pts) {
			t.Errorf("node %d KnownPopulation = %d, want %d", i+1, f.KnownPopulation(), len(pts))
		}
	}
}

// Regression: a node must not process its own heartbeat when a neighbor
// echoes it back. The original implementation re-relayed the echo with TTL-1
// (a third transmission per heartbeat in a 2-node ring) and recorded
// lastSeen[self]. Post-fix a 2-node ring costs exactly 2 transmissions per
// heartbeat: the origin's send and the peer's relay.
func TestFloodSelfEchoNotRelayed(t *testing.T) {
	w := buildFlood(t, 12, 0, clique(2))
	w.kernel.RunUntil(sim.Time(20 * time.Second))
	// Each node originates 20 or 21 heartbeats in 20 s (random first phase),
	// so total originations are in [40, 42] and total sends must be exactly
	// twice that. The buggy self-echo relay pushed this to 3x.
	sent := w.medium.Sent(wire.KindFloodHeartbeat)
	if sent > 2*42 {
		t.Errorf("2-node ring sent %d flood heartbeats in 20 intervals; want <= 84 (2 per heartbeat)", sent)
	}
	if sent < 2*40 {
		t.Errorf("2-node ring sent only %d flood heartbeats; relaying seems broken", sent)
	}
	for i, d := range w.dets {
		if d.IsSuspected(wire.NodeID(i + 1)) {
			t.Errorf("node %d suspects itself", i+1)
		}
	}
}

// Regression: a late relay of a PRE-crash heartbeat must not refresh the
// origin's liveness. The original implementation bumped lastSeen for any
// unseen (origin, seq), so one stale relay masked a crash for another full
// SuspectAfter window.
func TestFloodStaleRelayDoesNotMaskCrash(t *testing.T) {
	k := sim.New(13)
	m := radio.New(k, radio.Defaults(0))
	h := node.New(k, m, 1, clique(1)[0])
	f := newFlood(testParams())
	h.Use(f)
	h.Boot()

	// Hear origin 99's heartbeat seq 5 (TTL 1: no relay side effects).
	f.Handle(h, &wire.FloodHeartbeat{Origin: 99, Seq: 5, TTL: 1, Relay: 50}, 50)

	// Origin 99 then crashes: silence past SuspectAfter.
	k.RunUntil(sim.Time(10 * time.Second))
	if !f.IsSuspected(99) {
		t.Fatal("origin 99 not suspected after SuspectAfter of silence")
	}

	// A straggling relay of the OLDER seq 4 arrives. It is new to this host
	// (dedup would relay it) but it is stale evidence: suspicion must hold.
	f.Handle(h, &wire.FloodHeartbeat{Origin: 99, Seq: 4, TTL: 1, Relay: 51}, 51)
	if !f.IsSuspected(99) {
		t.Error("stale relayed heartbeat (seq 4 < delivered 5) rescinded the suspicion")
	}

	// A strictly newer heartbeat is real evidence and must rescind.
	f.Handle(h, &wire.FloodHeartbeat{Origin: 99, Seq: 6, TTL: 1, Relay: 51}, 51)
	if f.IsSuspected(99) {
		t.Error("strictly newer heartbeat did not rescind the suspicion")
	}
}

// The reorder window itself: duplicates inside the window are dropped, an
// unseen-but-stale seq inside the window is relayed once, and seqs that fall
// off the window are dropped entirely.
func TestFloodReorderWindow(t *testing.T) {
	k := sim.New(14)
	m := radio.New(k, radio.Defaults(0))
	h := node.New(k, m, 1, clique(1)[0])
	// Deliberately not booted: the host's own heartbeat ticks would pollute
	// the send count. Handle is driven directly.
	f := newFlood(testParams())

	send := func(seq uint64) {
		f.Handle(h, &wire.FloodHeartbeat{Origin: 7, Seq: seq, TTL: 4, Relay: 50}, 50)
	}
	relayed := func() int64 { return m.Sent(wire.KindFloodHeartbeat) }
	k.RunUntil(sim.Time(100 * time.Millisecond)) // jittered relays flush below

	send(100)
	send(99) // in-window, unseen: relayed, no liveness credit
	send(99) // duplicate: dropped
	send(20) // 80 behind: outside the window, dropped
	k.RunUntil(sim.Time(300 * time.Millisecond))
	if got := relayed(); got != 2 {
		t.Errorf("relayed %d heartbeats, want 2 (seq 100 and the one in-window stale seq 99)", got)
	}
	if got := f.dedupStateSize(); got != 1 {
		t.Errorf("dedup state has %d origins, want 1", got)
	}
}
