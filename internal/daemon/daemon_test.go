package daemon

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
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
	for _, want := range []string{"fdsd node n1", "epoch:", "role:", "suspected: []",
		"reports: 0 live, 0 pooled, 0 stale copies ignored", "bad-datagrams: 0", "queue-drops: 0"} {
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

// deliveries is a trace sink that counts the datagrams a daemon's transport
// delivered from one sender. The daemon's goroutine emits; a test waits.
type deliveries struct {
	suffix string // " from <sender>", as LinkTransport.Inject words a delivery
	n      atomic.Int64
	tick   chan struct{} // one token: n moved
}

func deliveriesFrom(sender wire.NodeID) *deliveries {
	return &deliveries{suffix: fmt.Sprintf(" from %v", sender), tick: make(chan struct{}, 1)}
}

func (s *deliveries) Emit(e trace.Event) {
	if e.Type != trace.TypeDeliver || !strings.HasSuffix(e.Detail, s.suffix) {
		return
	}
	s.n.Add(1)
	select {
	case s.tick <- struct{}{}:
	default:
	}
}

// awaitLimit is how long a test waits for a delivery before it calls the
// daemon hung.
const awaitLimit = 10 * time.Second

// await blocks until n deliveries have been counted; false means they had not
// been after a wait no healthy run comes near.
func (s *deliveries) await(n int64) bool {
	if s.n.Load() >= n {
		return true
	}
	timeout := time.After(awaitLimit)
	for s.n.Load() < n {
		select {
		case <-s.tick:
		case <-timeout:
			return false
		}
	}
	return true
}

// TestRunFleetDetectsVanishedPeer is the live smoke under Run rather than
// under a cooperative driver: three daemons, each on its own goroutine in the
// loop cmd/fdsd runs, share one mesh and one fake wall clock; one leaves the
// mesh and the survivors' final dumps must suspect it. Every datagram the
// fleet exchanges reaches its daemon through Inbox.Ready.
//
// The test paces the fleet by events, not sleeps: after each wall step a
// pacer port broadcasts a datagram the FDS stack ignores (a flood-detector
// heartbeat), and the next step waits until every live daemon has delivered
// it — by then the daemon has run its timers up to the step and injected
// everything queued ahead of the marker, which is as far as a cooperative
// driver's Poll + AdvanceTo gets.
func TestRunFleetDetectsVanishedPeer(t *testing.T) {
	timing := cluster.Timing{Thop: 20 * time.Millisecond, Interval: 200 * time.Millisecond}
	const n, pacerID = 3, wire.NodeID(99)
	cm := transport.NewChanMesh()
	wall := transport.NewFakeWall()
	stop := make(chan struct{})
	type runner struct {
		d    *Daemon
		seen *deliveries
		out  bytes.Buffer
		done chan error
	}
	fleet := make([]*runner, n)
	for i := range fleet {
		id := wire.NodeID(i + 1)
		r := &runner{seen: deliveriesFrom(pacerID), done: make(chan error, 1)}
		r.d = New(Config{ID: id, Seed: int64(100 + id), Timing: timing, Trace: r.seen}, cm.Join(id))
		fleet[i] = r
		go func() { r.done <- r.d.Run(wall, stop, &r.out) }()
	}
	pacer := cm.Join(pacerID)
	marker := wire.Encode(&wire.FloodHeartbeat{Origin: pacerID})
	step := timing.Thop / 4
	var markers int64
	pace := func(live []*runner, until sim.Time) {
		for wall.Elapsed() < until {
			wall.Advance(step)
			pacer.Broadcast(pacerID, marker)
			markers++
			for _, r := range live {
				if !r.seen.await(markers) {
					t.Fatalf("node %v delivered %d of %d markers: its Run loop is parked on a port holding %d datagrams",
						r.d.ID(), r.seen.n.Load(), markers, r.d.inbox.Len())
				}
			}
		}
	}

	pace(fleet, 2*timing.Interval+timing.Interval/2)
	victim, survivors := fleet[n-1], fleet[:n-1]
	victim.d.link.Close() // a killed process: its Run returns, its port is gone
	if err := <-victim.done; err != nil {
		t.Fatalf("victim's Run: %v", err)
	}
	pace(survivors, 7*timing.Interval)
	close(stop)
	for _, r := range survivors {
		if err := <-r.done; err != nil {
			t.Fatalf("node %v Run: %v", r.d.ID(), err)
		}
		dump := r.out.String()
		if !strings.Contains(dump, fmt.Sprintf("suspected: [%v]", victim.d.ID())) {
			t.Errorf("survivor %v does not suspect exactly the vanished node %v:\n%s", r.d.ID(), victim.d.ID(), dump)
		}
		if !strings.Contains(dump, "queue-drops: 0") {
			t.Errorf("survivor %v dropped datagrams on a paced mesh:\n%s", r.d.ID(), dump)
		}
		// The failure's report was heard and, epochs later, has retired: a
		// long-running daemon keeps no state for old reports.
		if !strings.Contains(dump, "reports: 0 live, 1 pooled, 0 stale copies ignored") {
			t.Errorf("survivor %v did not retire the failure's report:\n%s", r.d.ID(), dump)
		}
		// One cluster: no foreign peers or gateway pairs, and no more
		// forward slots than there are other survivors to ask.
		var slots, armed, border, pairs int
		i := strings.Index(dump, "state: ")
		if i < 0 {
			t.Fatalf("survivor %v dump has no state line:\n%s", r.d.ID(), dump)
		}
		if _, err := fmt.Sscanf(dump[i:], "state: %d forward slots (%d armed), %d border peers, %d gateway-candidate pairs",
			&slots, &armed, &border, &pairs); err != nil {
			t.Fatalf("survivor %v state line unreadable: %v\n%s", r.d.ID(), err, dump)
		}
		if slots > len(survivors)-1 || armed > slots || border != 0 || pairs != 0 {
			t.Errorf("survivor %v state: %d forward slots (%d armed), %d border peers, %d gateway-candidate pairs",
				r.d.ID(), slots, armed, border, pairs)
		}
	}
}

// runBesidePeer starts daemon n1 under Run on a mesh it shares with one peer
// port, n2, whose datagrams seen counts. finish stops Run and returns its
// final dump.
func runBesidePeer(t *testing.T, seed int64, wall transport.WallClock) (d *Daemon, peer *transport.ChanLink, seen *deliveries, finish func() string) {
	cm := transport.NewChanMesh()
	link := cm.Join(1)
	peer = cm.Join(2)
	seen = deliveriesFrom(2)
	d = New(Config{ID: 1, Seed: seed, Peers: []wire.NodeID{2}, Trace: seen}, link)
	var out bytes.Buffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- d.Run(wall, stop, &out) }()
	return d, peer, seen, func() string {
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out.String()
	}
}

// TestRunNeverParksOnQueuedDatagrams is the lost-wake-up test. The port
// signals Ready when it turns non-empty, not per datagram, so datagrams that
// land while Run is inside a drain raise no signal of their own: the drain
// must re-arm Ready when it leaves datagrams behind, or Run parks on a
// non-empty port until some later datagram or timer happens to wake it. Here
// nothing later comes — the wall never moves, and after each round the sender
// waits for every datagram of the round to be delivered. Within a round it
// keeps sending while Run drains, holding back only to stay under the queue
// bound, so that a round's last datagrams land behind a drain in progress.
func TestRunNeverParksOnQueuedDatagrams(t *testing.T) {
	const rounds, perRound, window = 30, 2000, 500 // window < the port's depth: nothing may drop
	d, peer, seen, finish := runBesidePeer(t, 5, transport.NewFakeWall())

	datagram := wire.Encode(&wire.Heartbeat{NID: 2})
	var sent int64
	await := func(n int64) {
		if !seen.await(n) {
			t.Fatalf("%d of %d datagrams delivered and Run is parked with %d queued: lost wake-up",
				seen.n.Load(), sent, d.inbox.Len())
		}
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			await(sent - window + 1)
			peer.Broadcast(2, datagram)
			sent++
		}
		await(sent)
	}
	if dump := finish(); !strings.Contains(dump, "queue-drops: 0") {
		t.Errorf("datagrams were dropped below the queue bound:\n%s", dump)
	}
}

// TestRunKeepsOneWallTimer pins that Run asks the wall clock for a timer per
// protocol event it sleeps towards, not per datagram it wakes for: a WallClock
// timer cannot be cancelled, so each one abandoned when a datagram wins the
// select stays allocated until it expires, up to an epoch later.
func TestRunKeepsOneWallTimer(t *testing.T) {
	wall := transport.NewFakeWall()
	_, peer, seen, finish := runBesidePeer(t, 6, wall)

	const datagrams = 200
	datagram := wire.Encode(&wire.Heartbeat{NID: 2})
	for i := int64(1); i <= datagrams; i++ {
		peer.Broadcast(2, datagram)
		if !seen.await(i) { // one wake-up of Run per datagram
			t.Fatalf("datagram %d never delivered", i)
		}
	}
	finish()
	if got := wall.Pending(); got > 2 {
		t.Errorf("%d wall timers pending after %d datagrams and no wall time: Run leaks one per wake-up", got, datagrams)
	}
}
