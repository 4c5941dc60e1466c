package fds

// Regression tests for the timer-lifecycle and epoch-accounting fixes. Each
// test fails against the pre-fix code it names.

import (
	"testing"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// TestForwardTimerRemovedAfterFire pins the forward-timer lifecycle: once a
// peer's forwarding timer fires and the ForwardedUpdate is sent, its entry
// must leave the forwardTimers map immediately. Pre-fix, the fired entry
// lingered until the next epoch's cancelForwardTimers sweep, so the map
// retained a stale handle to a recycled pooled-event slot and its size no
// longer reflected the number of pending forwards.
func TestForwardTimerRemovedAfterFire(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 11}, star(6, 60))
	e := wire.Epoch(3)
	start := w.timing.EpochStart(e)
	// Cut only the CH->node3 link across the R-3 update's flight window
	// (update broadcast at exactly R2End = 2*Thop = 40ms; max delivery
	// delay 12ms). Digests are all delivered by ~37ms, so a 38ms..53ms
	// block loses nothing but the health update on that one link.
	w.kernel.At(start+38*sim.Time(time.Millisecond), func() { w.medium.SetLinkLoss(1, 3, 1) })
	w.kernel.At(start+53*sim.Time(time.Millisecond), func() { w.medium.SetLinkLoss(1, 3, -1) })
	// Suppress the requester's acknowledgment (as a lossy channel would):
	// without the ack, every responder's timer fires and transmits, and the
	// fired timer itself is the only thing that can clean up its map entry.
	// (With the ack through, onForwardAck masks the leak by deleting the
	// fired entry a moment later.)
	w.kernel.At(start+w.timing.Thop, func() { w.fds[2].ackedForward = true })
	w.kernel.RunUntil(start + w.midEpoch())

	// The scenario must actually exercise peer forwarding.
	if w.tracer.Count(trace.TypePeerForward) == 0 {
		t.Fatal("no peer forward happened; scenario broken")
	}
	if !w.fds[2].UpdateReceived() {
		t.Fatal("requester never obtained the update")
	}
	// Long after the forward/ack exchange drained, no host may hold a
	// forward-timer entry: answered requests are deleted by the ack, fired
	// timers must delete themselves.
	for i, f := range w.fds {
		if n := f.armedForwards(); n != 0 {
			t.Errorf("node %d retains %d live forward-timer entries after fire", i+1, n)
		}
	}
}

// lateBootWorld is buildWorld plus one extra host (node n+1, near the
// cluster center) whose Boot is deferred to the given instant.
func lateBootWorld(t *testing.T, seed int64, positions []geo.Point, latePos geo.Point, bootAt sim.Time) (*world, *Protocol) {
	t.Helper()
	k := sim.New(seed)
	tr := trace.NewMemory(trace.TypeDetect, trace.TypeFalseDetect, trace.TypePeerForward)
	m := radio.New(k, radio.Defaults(0))
	w := &world{kernel: k, medium: m, timing: cluster.DefaultTiming(), tracer: tr}
	all := append(append([]geo.Point(nil), positions...), latePos)
	for i, pos := range all {
		h := node.New(k, m, wire.NodeID(i+1), pos, node.WithTrace(tr))
		cl := cluster.New(cluster.Config{Timing: w.timing})
		f := New(DefaultConfig(w.timing), cl)
		h.Use(cl)
		h.Use(f)
		w.hosts = append(w.hosts, h)
		w.cls = append(w.cls, cl)
		w.fds = append(w.fds, f)
	}
	for _, h := range w.hosts[:len(positions)] {
		h.Boot()
	}
	late := w.hosts[len(positions)]
	k.At(bootAt, func() { late.Boot() })
	return w, w.fds[len(positions)]
}

// TestHeartbeatEvidenceRequiresActive pins the evidence-gating fix: R-1
// heartbeat evidence, like R-2 digest evidence, is collected only by epoch
// participants (p.active). A host booted mid-epoch waits for the next
// boundary and is not active (not a marked member) when that epoch starts,
// so the heartbeats it overhears must not accumulate in heardHB. Pre-fix,
// onHeartbeat recorded unconditionally while onDigest checked p.active.
func TestHeartbeatEvidenceRequiresActive(t *testing.T) {
	tm := cluster.DefaultTiming()
	bootAt := tm.EpochStart(2) + tm.Interval/2
	w, late := lateBootWorld(t, 21, star(6, 60), geo.Point{X: 30, Y: 10}, bootAt)

	// Run well into epoch 3: every established node has diffused its
	// epoch-3 heartbeat and the late host has overheard them.
	w.kernel.RunUntil(tm.EpochStart(3) + 3*tm.Thop)

	if got := late.Epoch(); got != 3 {
		t.Fatalf("late host epoch = %d, want 3 (booted mid-epoch 2)", got)
	}
	if late.Active() {
		t.Fatal("late host active in its first epoch; evidence gate untestable")
	}
	if n := late.heardHB.Count(); n != 0 {
		t.Errorf("inactive late host accumulated %d heartbeat evidence entries, want 0", n)
	}
	// Established hosts, by contrast, must have full R-1 evidence.
	if n := w.fds[0].heardHB.Count(); n == 0 {
		t.Error("CH heard no heartbeats; world broken")
	}
}

// TestStartEpochBoundary pins Start's boundary decision against
// cluster.Timing: a host booted exactly on an epoch boundary joins that very
// epoch; a host booted any time strictly inside an epoch waits for the next
// boundary — never two.
func TestStartEpochBoundary(t *testing.T) {
	tm := cluster.DefaultTiming()
	cases := []struct {
		name   string
		bootAt sim.Time
		runTo  sim.Time
		want   wire.Epoch
	}{
		{"exact boundary joins current", tm.EpochStart(2), tm.EpochStart(2) + tm.Thop, 2},
		{"one tick late waits one epoch", tm.EpochStart(2) + 1, tm.EpochStart(3) + tm.Thop, 3},
		{"mid-epoch waits for next boundary", tm.EpochStart(2) + tm.Interval/2, tm.EpochStart(3) + tm.Thop, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			m := radio.New(k, radio.Defaults(0))
			h := node.New(k, m, 1, geo.Point{})
			cl := cluster.New(cluster.Config{Timing: tm})
			f := New(DefaultConfig(tm), cl)
			h.Use(cl)
			h.Use(f)
			k.At(tc.bootAt, func() { h.Boot() })
			k.RunUntil(tc.runTo)
			if got := f.Epoch(); got != tc.want {
				t.Errorf("booted at %v: first epoch = %d, want %d", tc.bootAt, got, tc.want)
			}
		})
	}
}

// TestSleepExcusalPrunedForDeadSleeper pins the epoch-boundary sleep-excusal
// prune: an excusal whose wake epoch has passed must leave sleepUntil at the
// next epoch start on EVERY host that recorded it. Pre-fix, reaping happened
// only lazily inside excused(), which runs solely in the CH's detection loop
// and only for live members — so a node that died during its announced nap
// (skipped via IsFailed / dropped from membership), and every non-CH host
// that recorded the notice (members and deputies never run the detection
// rule), retained the entry forever.
func TestSleepExcusalPrunedForDeadSleeper(t *testing.T) {
	w := buildWorld(t, worldConfig{seed: 7}, star(6, 60))
	// Let the cluster form, then announce: node 3 naps through epoch 5.
	w.runUntilEpoch(3)
	notice := &wire.SleepNotice{NID: 3, Epoch: 3, Until: 5}
	for _, f := range w.fds {
		f.onSleepNotice(notice)
	}
	for _, f := range w.fds {
		if f.SleepExcusals() != 1 {
			t.Fatal("excusal not recorded; scenario broken")
		}
	}
	// The sleeper dies mid-nap: it never wakes, never heartbeats again.
	w.kernel.At(w.timing.EpochStart(4)+w.timing.Interval/2, func() { w.hosts[2].Crash() })
	// Run well past the wake-grace epoch (excused through epoch 5, expired
	// from epoch 6 on) plus one boundary so runEpoch(7)'s prune has run.
	w.runUntilEpoch(7)
	w.kernel.RunUntil(w.timing.EpochStart(7) + w.timing.Thop)

	for i, f := range w.fds {
		if i == 2 {
			continue // the crashed sleeper itself
		}
		if n := f.SleepExcusals(); n != 0 {
			t.Errorf("node %d retains %d expired sleep excusals, want 0", i+1, n)
		}
	}
	// The dead sleeper must still have been detected once its grace ended.
	if !w.fds[0].IsSuspected(3) {
		t.Error("CH never detected the dead sleeper")
	}
}
