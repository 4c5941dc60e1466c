package transport

import (
	"fmt"

	"clusterfds/internal/geo"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// LinkTransport adapts a Broadcaster (UDP socket, in-process channel mesh,
// or the simulated radio medium, through radio.Port) into the Transport
// surface a single host binds to. Where the radio medium carries every host of a run, a
// LinkTransport carries exactly one — the local daemon's — and treats
// everything beyond the Broadcast call as another process.
//
// Outbound: Send encodes the message into a reused buffer and broadcasts the
// wire bytes. Inbound: the daemon's event loop drains the Link's Inbox and calls
// Inject, which decodes into the transport's own scratch and delivers to the
// local host. A live socket receives attacker-controlled bytes, so Inject
// returns decode errors instead of panicking; the wire fuzz targets pin that
// the decoder itself never panics or overreads on hostile input.
//
// LinkTransport is not safe for concurrent use: the daemon serializes
// Send (from protocol callbacks) and Inject (from its receive loop) onto one
// goroutine.
type LinkTransport struct {
	clock Clock
	bc    Broadcaster
	sink  trace.Sink

	self    Receiver
	meter   *Meter
	scratch *wire.DecodeScratch
	txBuf   []byte
	tracing bool

	rxBad int64
}

// selfSlot is the local host's slot in the transport's meter: the only one,
// since Attach tracks exactly one host.
const selfSlot = 0

// LinkOption customizes a LinkTransport.
type LinkOption func(*LinkTransport)

// WithLinkTrace attaches a trace sink to the transport.
func WithLinkTrace(s trace.Sink) LinkOption {
	return func(lt *LinkTransport) { lt.sink = s }
}

// NewLinkTransport creates a transport for one host over bc. Its host's
// energy is metered with DefaultEnergy, the model every backend shares.
func NewLinkTransport(clock Clock, bc Broadcaster, opts ...LinkOption) *LinkTransport {
	lt := &LinkTransport{
		clock:   clock,
		bc:      bc,
		sink:    trace.Nop{},
		scratch: wire.NewDecodeScratch(),
		meter:   NewMeter(DefaultEnergy(), clock),
	}
	for _, opt := range opts {
		opt(lt)
	}
	_, nop := lt.sink.(trace.Nop)
	lt.tracing = !nop
	return lt
}

// Attach implements Transport. A LinkTransport carries exactly one host;
// attaching a second panics.
func (lt *LinkTransport) Attach(r Receiver) {
	if r.ID() == wire.NoNode {
		panic("transport: cannot attach node with NID 0")
	}
	if lt.self != nil {
		panic(fmt.Sprintf("transport: LinkTransport already carries %v; cannot attach %v", lt.self.ID(), r.ID()))
	}
	lt.self = r
	lt.meter.Track(r.ID())
}

// Send implements Transport: encode and broadcast on behalf of the local
// host. Sends from anyone but the attached host, or while the host is not
// operational, transmit nothing.
func (lt *LinkTransport) Send(from wire.NodeID, msg wire.Message) {
	if lt.self == nil || from != lt.self.ID() || !lt.self.Operational() {
		return
	}
	size := msg.WireSize()
	lt.meter.ChargeTx(selfSlot, size)
	if lt.tracing {
		lt.sink.Emit(trace.Event{
			At: lt.clock.Now(), Type: trace.TypeSend, Node: uint32(from),
			Detail: msg.Kind().String(),
		})
	}
	lt.txBuf = wire.EncodeAppend(lt.txBuf[:0], msg)
	// Best-effort, like the radio: a failed broadcast is a lost datagram.
	_ = lt.bc.Broadcast(from, lt.txBuf)
}

// Inject decodes one received datagram and delivers it to the local host.
// Malformed payloads are counted and reported, never fatal: a UDP socket is
// an open port. The decoded message is valid only during the Deliver call.
func (lt *LinkTransport) Inject(p Packet) error {
	if lt.self == nil || !lt.self.Operational() {
		return nil
	}
	if p.From == wire.NoNode || p.From == lt.self.ID() {
		// NID 0 is unassigned and a datagram claiming to be from ourselves
		// is a reflection; both are hostile or misconfigured.
		lt.rxBad++
		return fmt.Errorf("transport: datagram with invalid sender %v", p.From)
	}
	decoded, err := wire.DecodeInto(lt.scratch, p.Payload)
	if err != nil {
		lt.rxBad++
		return fmt.Errorf("transport: undecodable datagram from %v: %w", p.From, err)
	}
	lt.meter.ChargeRx(selfSlot, len(p.Payload))
	if lt.tracing {
		lt.sink.Emit(trace.Event{
			At: lt.clock.Now(), Type: trace.TypeDeliver, Node: uint32(lt.self.ID()),
			Detail: fmt.Sprintf("%s from %v", decoded.Kind(), p.From),
		})
	}
	lt.self.Deliver(decoded, p.From)
	return nil
}

// BadDatagrams returns how many inbound datagrams were rejected as
// malformed or mis-addressed.
func (lt *LinkTransport) BadDatagrams() int64 { return lt.rxBad }

// Energy implements Transport via the transport's meter. Only the local
// host is tracked; remote hosts report zero (the protocol stack only ever
// asks about its own budget).
func (lt *LinkTransport) Energy(id wire.NodeID) float64 { return lt.meter.Energy(id) }

// Meter returns the transport's energy meter (the local host's spend).
func (lt *LinkTransport) Meter() *Meter { return lt.meter }

// UpdatePos implements Transport; a link has no geometry.
func (lt *LinkTransport) UpdatePos(id wire.NodeID, old geo.Point) {}

var _ Transport = (*LinkTransport)(nil)
