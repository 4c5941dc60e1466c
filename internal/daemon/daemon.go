// Package daemon is the engine of cmd/fdsd: one live host of the
// cluster-based failure detection service, assembled from the same protocol
// stack the simulator runs (cluster formation, FDS, inter-cluster
// forwarding) bound to a transport.Link instead of the simulated radio.
//
// The daemon keeps the sans-I/O discipline: protocol code runs on a private
// virtual-time sim.Kernel that the driver advances to track either the wall
// clock (Run, used by cmd/fdsd) or a test's schedule (AdvanceTo/Poll, used
// by the in-process mesh tests). Wall time and sockets never reach the
// protocol core, so a daemon's state after a given message history is a
// pure function of (history, seed) — which is what makes the final state
// dump on shutdown, and the tests that assert on it, deterministic.
package daemon

import (
	"fmt"
	"io"
	"slices"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Config parameterizes one daemon.
type Config struct {
	// ID is this node's NID. Required, nonzero.
	ID wire.NodeID
	// Seed seeds the daemon's private kernel (jitter, backoff draws).
	Seed int64
	// Timing is the shared protocol schedule. Zero means DefaultTiming.
	Timing cluster.Timing
	// Peers is the static roster of remote NIDs expected on the link. It is
	// descriptive only: the link's own address list decides who hears a
	// broadcast, and nothing in the stack queries the roster.
	Peers []wire.NodeID
	// Trace receives host and transport events (nil for none).
	Trace trace.Sink
	// BootAt delays Boot to the given virtual time (0 boots immediately),
	// so tests can pin the epoch-boundary boot semantics.
	BootAt sim.Time
}

// Daemon is one live FDS host.
type Daemon struct {
	cfg    Config
	kernel *sim.Kernel
	inbox  *transport.Inbox       // the link's Inbox, fetched once: Poll runs every step of a cooperative driver
	inject func(transport.Packet) // what a drain hands each datagram to
	lt     *transport.LinkTransport
	host   *node.Host
	stack  intercluster.Stack
}

// New assembles a daemon over the given link. The full stack is wired and
// (unless BootAt is set) booted at virtual time zero; no traffic flows
// until the driver advances the kernel.
func New(cfg Config, link transport.Link) *Daemon {
	if cfg.ID == wire.NoNode {
		panic("daemon: config needs a nonzero ID")
	}
	if cfg.Timing == (cluster.Timing{}) {
		cfg.Timing = cluster.DefaultTiming()
	}
	k := sim.New(cfg.Seed)
	var ltOpts []transport.LinkOption
	var hostOpts []node.Option
	if cfg.Trace != nil {
		ltOpts = append(ltOpts, transport.WithLinkTrace(cfg.Trace))
		hostOpts = append(hostOpts, node.WithTrace(cfg.Trace))
	}
	lt := transport.NewLinkTransport(k, link, ltOpts...)
	h := node.New(k, lt, cfg.ID, geo.Point{}, hostOpts...)

	stack := intercluster.Install(h, fds.DefaultConfig(cfg.Timing), intercluster.DefaultConfig(cfg.Timing))

	d := &Daemon{cfg: cfg, kernel: k, inbox: link.Inbox(), lt: lt, host: h, stack: stack}
	// Malformed datagrams are counted by the transport and dropped.
	d.inject = func(p transport.Packet) { _ = lt.Inject(p) }
	if cfg.BootAt > 0 {
		k.At(cfg.BootAt, h.Boot)
	} else {
		h.Boot()
	}
	return d
}

// ID returns the daemon's NID.
func (d *Daemon) ID() wire.NodeID { return d.cfg.ID }

// Kernel returns the daemon's virtual-time kernel.
func (d *Daemon) Kernel() *sim.Kernel { return d.kernel }

// FDS returns the daemon's failure detection service.
func (d *Daemon) FDS() *fds.Protocol { return d.stack.FDS }

// Cluster returns the daemon's cluster-formation protocol.
func (d *Daemon) Cluster() *cluster.Protocol { return d.stack.Cluster }

// Transport returns the daemon's link transport.
func (d *Daemon) Transport() *transport.LinkTransport { return d.lt }

// Crash fail-stops the daemon's host: it goes silent and deaf but its
// driver can keep advancing the kernel. Tests use this to induce the
// failure the surviving daemons must detect.
func (d *Daemon) Crash() { d.host.Crash() }

// Poll drains every currently queued inbound datagram without blocking and
// delivers each to the protocol stack at the current virtual time.
// "Currently" is the queue depth on entry (transport.Inbox.Drain): datagrams
// a peer broadcasts from another goroutine while Poll runs wait for the next
// call, so a busy mesh cannot hold a cooperative driver here. On an empty
// port it is two loads and takes no lock.
func (d *Daemon) Poll() {
	if d.inbox.Len() != 0 {
		d.inbox.Drain(d.inject)
	}
}

// AdvanceTo runs the protocol stack up to virtual time t. Cooperative
// drivers (tests) interleave Poll and AdvanceTo across a fleet of daemons
// to emulate concurrent execution with no goroutines and no wall time.
func (d *Daemon) AdvanceTo(t sim.Time) { d.kernel.RunUntil(t) }

// Now returns the daemon's current virtual time.
func (d *Daemon) Now() sim.Time { return d.kernel.Now() }

// Run drives the daemon against a wall clock until stop is closed (or the
// link closes), then writes the final deterministic state dump to out and
// returns. This is cmd/fdsd's main loop; tests run it against a FakeWall so
// nothing sleeps on real time.
//
// The loop keeps the kernel's virtual clock tracking wall.Elapsed(): it
// sleeps exactly until the next protocol timer is due (sim.Kernel.
// NextEventAt) or the port has datagrams (transport.Inbox.Ready), whichever
// is first.
func (d *Daemon) Run(wall transport.WallClock, stop <-chan struct{}, out io.Writer) error {
	// A WallClock timer cannot be taken back, so one is asked for only when
	// none is pending or the next event moved ahead of the pending one; a
	// timer that outlives its event wakes the loop once for nothing.
	var timer <-chan struct{}
	var timerAt sim.Time
	for {
		if next, ok := d.kernel.NextEventAt(); ok && (timer == nil || next < timerAt) {
			timer, timerAt = wall.After(next-wall.Elapsed()), next
		}
		select {
		case <-stop:
			d.kernel.RunUntil(wall.Elapsed())
			return d.DumpState(out)
		case _, open := <-d.inbox.Ready():
			d.kernel.RunUntil(wall.Elapsed())
			d.Poll()
			if !open {
				return d.DumpState(out)
			}
		case <-timer:
			timer = nil
			d.kernel.RunUntil(wall.Elapsed())
		}
	}
}

// DumpState writes a deterministic snapshot of the daemon's protocol state:
// every list sorted, every field a pure function of the message history and
// seed. Two daemons fed the same history dump identical bytes, which the
// graceful-shutdown test pins.
func (d *Daemon) DumpState(w io.Writer) error {
	v := d.stack.Cluster.View()
	role := "unclustered"
	if v.IsCH {
		role = "clusterhead"
	} else if v.Marked {
		role = fmt.Sprintf("member of %v", v.CH)
	}
	suspected := append([]wire.NodeID(nil), d.stack.FDS.KnownFailed()...)
	slices.Sort(suspected)
	members := append([]wire.NodeID(nil), v.Members...)
	slices.Sort(members)
	slots, armed := d.stack.FDS.ForwardSlots()
	_, err := fmt.Fprintf(w,
		"fdsd node %v\n  vtime: %v\n  epoch: %v\n  role: %s\n  members: %v\n  dchs: %v\n  suspected: %v\n  update-received: %v\n  reports: %d live, %d pooled, %d stale copies ignored\n  state: %d forward slots (%d armed), %d border peers, %d gateway-candidate pairs\n  bad-datagrams: %v\n  queue-drops: %v\n",
		d.cfg.ID, d.kernel.Now(), d.stack.FDS.Epoch(), role, members, v.DCHs, suspected,
		d.stack.FDS.UpdateReceived(), d.stack.Forwarder.LiveReports(), d.stack.Forwarder.PooledReports(), d.stack.Forwarder.StaleCopies(),
		slots, armed, d.stack.Cluster.BorderPeers(), d.stack.Cluster.GatewayPairs(),
		d.lt.BadDatagrams(), d.inbox.Dropped())
	return err
}
