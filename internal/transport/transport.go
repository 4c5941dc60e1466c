// Package transport defines the sans-I/O boundary of the protocol stack.
//
// The failure detection service, the cluster-formation algorithm, and the
// inter-cluster forwarder are pure message-driven state machines: they
// consume delivered messages and timer firings, and they produce sends and
// new timers. Everything impure — where time comes from, where randomness
// comes from, and how bytes move between hosts — enters through the three
// interfaces declared here:
//
//	Clock      reads the virtual now (sim.Kernel, or a kernel paced against
//	           the wall clock by a live driver); Runtime adds scheduling.
//	Rand       is a seeded randomness source (*rand.Rand satisfies it).
//	Transport  carries encoded messages between hosts.
//
// The simulated radio medium (internal/radio) is one Transport backend;
// LinkTransport, one host's adapter over a UDP socket, a channel mesh or a
// port of the radio medium, is the other. Both move the same internal/wire
// bytes, so a binary-level conformance harness (internal/conformance) can
// assert that the state machines behave identically whether hosts sit on the
// medium directly or each on its own LinkTransport over it. The
// lint walltime analyzer polices this boundary mechanically: inside the
// deterministic packages the only legal clock is a Clock and the only legal
// randomness is a seeded Rand.
package transport

import (
	"math/rand"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Clock is the virtual now that energy meters and link transports stamp
// their accounting and trace events with. *sim.Kernel implements it.
type Clock interface {
	// Now returns the current virtual time.
	Now() sim.Time
}

// Runtime is what a host binds to: a clock, the two ways of scheduling on it,
// and the seeded random source its timeline was built with. *sim.Kernel
// implements it directly, both under the simulator and under a live driver
// that paces a kernel against the wall clock. Implementations must run
// callbacks one at a time (the protocol core is lock-free by construction)
// and in (time, schedule-order) order.
type Runtime interface {
	Clock
	ArgClock
	BatchClock
	// Rand returns the runtime's explicitly seeded random source, so a run
	// is a pure function of (scenario, seed).
	Rand() *rand.Rand
}

// ArgClock is closure-free scheduling of a long-lived handler with a
// per-event argument. Hosts run every cancellable timer through it, each one
// a pooled record instead of a fresh closure.
type ArgClock interface {
	// ScheduleArg runs fn(arg) after the given delay and returns a
	// cancellable handle. Negative delays fire at the current instant.
	ScheduleArg(delay sim.Time, fn sim.ArgHandler, arg any) sim.Timer
}

// BatchClock coalesces same-instant callbacks into one kernel event that
// runs them in registration order (see
// sim.Kernel.AtBatched for the exact ordering contract). Protocol phase
// schedules use it so an epoch boundary costs one event, not one per host.
type BatchClock interface {
	// AtBatched runs fn(arg) at the absolute time at; no cancellation handle
	// is returned, so callbacks must guard themselves.
	AtBatched(at sim.Time, fn sim.ArgHandler, arg any)
}

// The simulation kernel is a Runtime.
var _ Runtime = (*sim.Kernel)(nil)

// Receiver is the surface a host exposes to a transport.
type Receiver interface {
	// ID returns the host's globally unique NID.
	ID() wire.NodeID
	// Pos returns the host's current location. Transports without geometry
	// (LinkTransport) ignore it.
	Pos() geo.Point
	// Operational reports whether the host can currently send and receive
	// (false once crashed — the fail-stop model — or radio-asleep).
	Operational() bool
	// Deliver hands a received message to the host. The message may be
	// backed by the transport's decode scratch and is valid only for the
	// duration of the call; receivers that keep any part of it must copy.
	Deliver(m wire.Message, from wire.NodeID)
}

// Transport carries messages between hosts. It is the full surface
// node.Host needs from the network layer; *radio.Medium and *LinkTransport
// implement it.
//
// Implementations are driven from Runtime callbacks and must not be assumed
// safe for concurrent use; in live mode the driver serializes everything
// onto one goroutine.
type Transport interface {
	// Attach registers a host with the transport. Attaching two hosts with
	// the same NID is a configuration error and panics.
	Attach(r Receiver)
	// Send transmits m on behalf of from. Per the promiscuous model the
	// message is offered to every reachable host; delivery is best-effort.
	Send(from wire.NodeID, m wire.Message)
	// Energy returns the host's available energy budget (the peer-forwarding
	// backoff consults it). Transports without an energy model return a
	// constant.
	Energy(id wire.NodeID) float64
	// UpdatePos tells the transport a host moved from old to its current
	// Pos. Transports without geometry ignore it.
	UpdatePos(id wire.NodeID, old geo.Point)
}

// Packet is one received datagram: the sender's NID and the encoded
// message bytes (internal/wire format, no framing). Payload is read-only,
// may be shared by all receivers of one broadcast, and is valid only until
// the Inbox.Drain callback it was handed to returns: its bytes lie in a
// reused slab of the link's. A receiver decodes it in place
// (LinkTransport.Inject, which delivers synchronously and keeps nothing)
// and copies whatever it keeps or changes.
type Packet struct {
	From    wire.NodeID
	Payload []byte
}

// Broadcaster is the outbound half of a link: it offers one encoded message
// to every peer. The payload is owned by the caller and valid only for the
// duration of the call; implementations that retain it copy it (ChanMesh
// once per broadcast, into a reused slab). A closed Link sends nothing and
// returns net.ErrClosed.
type Broadcaster interface {
	Broadcast(from wire.NodeID, payload []byte) error
}

// Link is a full-duplex best-effort broadcast link for a live node: UDP on
// localhost (UDPLink) or an in-process mesh (ChanMesh). Inbound datagrams
// queue on the port's Inbox; a received Packet's payload is read-only and
// valid until the Drain callback returns (see Packet).
type Link interface {
	Broadcaster
	// Inbox returns the port's inbound queue, the same one for the life of
	// the link. One goroutine drains it.
	Inbox() *Inbox
	// Close tears the link down and closes the inbox's Ready channel.
	Close() error
}
