package daemon

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// buildCluster assembles n daemons on one in-process channel mesh, each
// with a full roster of the others.
func buildCluster(n int, timing cluster.Timing) (*transport.ChanMesh, []*Daemon) {
	cm := transport.NewChanMesh()
	daemons := make([]*Daemon, 0, n)
	for i := 1; i <= n; i++ {
		id := wire.NodeID(i)
		var peers []wire.NodeID
		for j := 1; j <= n; j++ {
			if j != i {
				peers = append(peers, wire.NodeID(j))
			}
		}
		link := cm.Join(id)
		daemons = append(daemons, New(Config{
			ID:     id,
			Seed:   int64(100 + i),
			Timing: timing,
			Peers:  peers,
		}, link))
	}
	return cm, daemons
}

// drive advances every daemon in lockstep steps of the given size until
// virtual time end, draining each daemon's inbound queue between steps.
// This emulates n concurrent processes deterministically: no goroutines,
// no wall time.
func drive(daemons []*Daemon, end, step sim.Time) {
	for t := step; t <= end; t += step {
		for _, d := range daemons {
			d.Poll()
			d.AdvanceTo(t)
		}
	}
}

// TestLiveSmokeCrashDetection is the live smoke: a 3-node channel-mesh
// cluster forms, one node is crashed, and both survivors must detect the
// failure within the FDS's detection horizon. Deterministic: fixed seeds,
// fixed step schedule.
func TestLiveSmokeCrashDetection(t *testing.T) {
	timing := cluster.DefaultTiming()
	_, daemons := buildCluster(3, timing)
	const crashNID = wire.NodeID(3)
	step := timing.Thop / 4

	// Let the cluster form and run two full epochs.
	drive(daemons, 2*timing.Interval+timing.Interval/2, step)
	for _, d := range daemons {
		if v := d.Cluster().View(); !v.Marked {
			t.Fatalf("node %v never joined a cluster", d.ID())
		}
	}

	// Fail-stop node 3 and keep the survivors running.
	daemons[2].Crash()
	drive(daemons, 6*timing.Interval, step)

	for _, d := range daemons[:2] {
		if !d.FDS().IsSuspected(crashNID) {
			t.Errorf("survivor %v never detected crashed node %v (epoch %v, failed %v)",
				d.ID(), crashNID, d.FDS().Epoch(), d.FDS().KnownFailed())
		}
		if d.FDS().IsSuspected(daemons[0].ID()) || d.FDS().IsSuspected(daemons[1].ID()) {
			t.Errorf("survivor %v suspects a live node: %v", d.ID(), d.FDS().KnownFailed())
		}
		if d.FDS().Epoch() < wire.Epoch(5) {
			t.Errorf("survivor %v wedged at epoch %v", d.ID(), d.FDS().Epoch())
		}
	}
}

// TestVanishedPeerIsDetected models a process that dies rather than a host
// that crashes in place: the port leaves the mesh entirely (its daemon is
// neither polled nor advanced again), which is what a killed fdsd process
// looks like to the survivors.
func TestVanishedPeerIsDetected(t *testing.T) {
	timing := cluster.DefaultTiming()
	_, daemons := buildCluster(3, timing)
	step := timing.Thop / 4

	drive(daemons, 2*timing.Interval+timing.Interval/2, step)
	// Kill node 2: its port leaves the mesh and its daemon is never
	// polled or advanced again.
	daemons[1].link.Close()
	survivors := []*Daemon{daemons[0], daemons[2]}
	drive(survivors, 6*timing.Interval, step)

	for _, d := range survivors {
		if !d.FDS().IsSuspected(2) {
			t.Errorf("survivor %v never detected vanished node 2 (failed %v)", d.ID(), d.FDS().KnownFailed())
		}
	}
}

// TestGracefulShutdownDumpIsDeterministic runs a daemon's wall-clock loop
// (the exact loop cmd/fdsd uses) against a FakeWall, stops it, and pins
// that two identical runs produce byte-identical final state dumps —
// the graceful-shutdown contract of satellite 6. Nothing sleeps on wall
// time: the fake wall is advanced from the test.
func TestGracefulShutdownDumpIsDeterministic(t *testing.T) {
	timing := cluster.Timing{Thop: 20 * time.Millisecond, Interval: 200 * time.Millisecond}
	runOnce := func() string {
		cm := transport.NewChanMesh()
		link := cm.Join(1)
		d := New(Config{ID: 1, Seed: 7, Timing: timing, Peers: []wire.NodeID{2, 3}}, link)
		wall := transport.NewFakeWall()
		var out bytes.Buffer
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- d.Run(wall, stop, &out) }()

		// Walk wall time across several epochs in uneven steps, then stop.
		for _, step := range []sim.Time{
			30 * time.Millisecond, 250 * time.Millisecond, 170 * time.Millisecond,
			410 * time.Millisecond, 90 * time.Millisecond,
		} {
			wall.Advance(step)
		}
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out.String()
	}

	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("two identical runs dumped different state:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{"fdsd node n1", "epoch:", "role:", "suspected: []", "bad-datagrams: 0"} {
		if !strings.Contains(a, want) {
			t.Errorf("dump missing %q:\n%s", want, a)
		}
	}
	// The daemon must actually have advanced to the stop instant: the five
	// steps above sum to 950ms = epoch 4 under a 200ms interval.
	if !strings.Contains(a, "vtime: 950ms") {
		t.Errorf("dump did not advance to the stop instant:\n%s", a)
	}
}

// TestRunExitsWhenLinkCloses pins the second shutdown path: a daemon whose
// link dies dumps state and returns instead of spinning.
func TestRunExitsWhenLinkCloses(t *testing.T) {
	cm := transport.NewChanMesh()
	link := cm.Join(1)
	d := New(Config{ID: 1, Seed: 1, Peers: []wire.NodeID{2}}, link)
	wall := transport.NewFakeWall()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- d.Run(wall, nil, &out) }()
	link.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after link close")
	}
	if !strings.Contains(out.String(), "fdsd node n1") {
		t.Errorf("no final dump on link close:\n%s", out.String())
	}
}

// TestBootBoundaryEpochs is the boot-boundary table test of satellite 2,
// driven through the daemon's BootAt (no wall sleeping anywhere): a daemon
// booted exactly at EpochStart(e) joins epoch e; one tick later it waits
// for e+1.
func TestBootBoundaryEpochs(t *testing.T) {
	timing := cluster.DefaultTiming()
	cases := []struct {
		name      string
		bootAt    sim.Time
		runTo     sim.Time
		wantEpoch wire.Epoch
	}{
		{"at-zero", 0, timing.Interval / 2, 0},
		{"mid-epoch-0", timing.Interval / 3, timing.Interval - 1, 0},
		{"exactly-epoch-1", timing.EpochStart(1), timing.EpochStart(1) + timing.Interval/2, 1},
		// One tick past the boundary the host must wait out the rest of
		// epoch 1 and join at epoch 2 (the PR 3 off-by-one regression).
		{"tick-after-epoch-1", timing.EpochStart(1) + 1, timing.EpochStart(2) + timing.Interval/2, 2},
		{"exactly-epoch-3", timing.EpochStart(3), timing.EpochStart(3) + timing.Interval/2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cm := transport.NewChanMesh()
			d := New(Config{ID: 1, Seed: 2, Timing: timing, Peers: []wire.NodeID{2}, BootAt: tc.bootAt}, cm.Join(1))
			d.AdvanceTo(tc.runTo)
			if got := d.FDS().Epoch(); got != tc.wantEpoch {
				t.Errorf("boot at %v, run to %v: epoch = %v, want %v", tc.bootAt, tc.runTo, got, tc.wantEpoch)
			}
		})
	}
}

// TestMalformedDatagramsAreSurvivable floods a live daemon with garbage
// between legitimate protocol steps; the daemon must count and drop the
// garbage and keep executing epochs.
func TestMalformedDatagramsAreSurvivable(t *testing.T) {
	timing := cluster.DefaultTiming()
	cm := transport.NewChanMesh()
	link := cm.Join(1)
	hostile := cm.Join(99)
	d := New(Config{ID: 1, Seed: 3, Timing: timing, Peers: []wire.NodeID{99}}, link)

	step := timing.Thop / 2
	garbage := [][]byte{
		{},
		{0xFF},
		{0x00, 0x01},
		bytes.Repeat([]byte{0xA5}, 512),
	}
	for t := step; t <= 3*timing.Interval; t += step {
		hostile.Broadcast(99, garbage[int(t/step)%len(garbage)])
		d.Poll()
		d.AdvanceTo(t)
	}
	if d.FDS().Epoch() < 2 {
		t.Errorf("daemon wedged at epoch %v under garbage flood", d.FDS().Epoch())
	}
	if d.Transport().BadDatagrams() == 0 {
		t.Error("no malformed datagrams were counted")
	}
}

// answeringPeer is a trace sink that models the fastest possible concurrent
// peer, deterministically: for every datagram the daemon's transport
// delivers, one more is already on the daemon's port (up to a limit, so an
// unbounded drain ends in a count instead of a hang).
type answeringPeer struct {
	link      *transport.ChanLink
	datagram  []byte
	delivered int
	limit     int
}

func (p *answeringPeer) Emit(e trace.Event) {
	if e.Type != trace.TypeDeliver {
		return
	}
	if p.delivered++; p.delivered < p.limit {
		p.link.Broadcast(p.link.ID(), p.datagram)
	}
}

// TestPollDrainsOnlyWhatWasQueuedOnEntry pins Poll's bound. The mesh is
// thread-safe and Run-driven daemons share it with cooperative ones, so a peer
// may broadcast while Poll drains; Poll must deliver the datagrams it found
// and return, not chase the queue until it happens to be empty — which, with
// a peer that refills as fast as Inject empties, is never.
func TestPollDrainsOnlyWhatWasQueuedOnEntry(t *testing.T) {
	cm := transport.NewChanMesh()
	link := cm.Join(1)
	peer := &answeringPeer{
		link:     cm.Join(99),
		datagram: wire.Encode(&wire.Heartbeat{NID: 99}),
		limit:    1000,
	}
	d := New(Config{ID: 1, Seed: 4, Peers: []wire.NodeID{99}, Trace: peer}, link)

	const queued = 3
	for i := 0; i < queued; i++ {
		peer.link.Broadcast(99, peer.datagram)
	}
	d.Poll()
	if peer.delivered != queued {
		t.Fatalf("Poll delivered %d datagrams, want the %d queued when it was called", peer.delivered, queued)
	}
	// What arrived meanwhile is not lost: it is the next call's.
	d.Poll()
	if peer.delivered != 2*queued {
		t.Errorf("second Poll brought deliveries to %d, want %d", peer.delivered, 2*queued)
	}
}
