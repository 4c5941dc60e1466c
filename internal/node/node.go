// Package node implements the host runtime: a fail-stop process with a
// position, an energy budget (delegated to the transport's meter), a
// stack of protocols, and crash-aware timers.
//
// Hosts follow the paper's fail-stop model (Section 2.2): a crashed host
// stops sending, receiving, and firing timers, and never recovers. Crashes
// are injected by scenarios, optionally aligned to heartbeat-interval
// epochs to honor the assumption that "a node will not fail during an FDS
// execution".
//
// This runtime allocates one Host object per node and scales comfortably
// to ~10^4 hosts. For larger fields, internal/shard reimplements the FDS
// rounds on struct-of-arrays state with a sharded conservative kernel
// (fdsim -shards N); the two engines share wire sizes, timing, and the
// golden-hash determinism discipline, but not code.
package node

import (
	"fmt"
	"math/rand"

	"clusterfds/internal/geo"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Protocol is a state machine attached to a host. A host dispatches every
// received message to every attached protocol; protocols ignore kinds they
// do not care about. This mirrors the paper's middleware framing: the
// clustering layer, the FDS, and the inter-cluster forwarder are separate
// modules sharing one radio.
type Protocol interface {
	// Start is called once when the host boots.
	Start(h *Host)
	// Handle is called for every message delivered to the host.
	Handle(h *Host, m wire.Message, from wire.NodeID)
}

// Host is one network node. It implements transport.Receiver and is
// transport-agnostic: the same Host (and the same protocol stack above it)
// runs on the simulated radio medium or, through a transport.LinkTransport,
// on the deterministic in-process mesh or a live UDP link, because it touches
// time, randomness, and the network only through the transport.Runtime and
// transport.Transport interfaces.
type Host struct {
	id    wire.NodeID
	pos   geo.Point
	clock transport.Runtime
	net   transport.Transport
	sink  trace.Sink

	protocols []Protocol
	crashed   bool
	started   bool
	// radioOff models sleep-mode duty cycling: the host neither sends nor
	// receives, but its clock (and therefore protocol timers) keeps
	// running — radio sleep, the energy-dominant kind. wakeAt is the
	// current wake deadline (later SleepRadio calls move it).
	radioOff bool
	wakeAt   sim.Time

	// After, AfterArg and AfterBatched run through pooled timer records and
	// one shared ArgHandler instead of allocating a crash-guard closure per
	// timer.
	timerFree []*timerRec
	tracing   bool
}

// timerRec carries one pending host timer through the kernel: the host (for
// the crash guard) and an (ArgHandler, arg) pair. Records are pooled per host
// and go back to the pool when their timer fires or is canceled.
type timerRec struct {
	h   *Host
	fn  sim.ArgHandler
	arg any
}

// fireTimerFn is the one ArgHandler behind every host timer.
var fireTimerFn sim.ArgHandler = func(a any) {
	rec := a.(*timerRec)
	h, fn, arg := rec.h, rec.fn, rec.arg
	h.putTimerRec(rec)
	if !h.crashed {
		fn(arg)
	}
}

// callFn runs the func() an After timer carries as its argument: a func value
// is one pointer, so storing it in the record's any allocates nothing.
func callFn(fn any) { fn.(func())() }

func (h *Host) takeTimerRec(fn sim.ArgHandler, arg any) *timerRec {
	if len(h.timerFree) == 0 {
		// Grow by a block: per-host pending-timer counts rise with report
		// traffic, so one-at-a-time growth would allocate every epoch.
		blk := make([]timerRec, 16)
		for i := range blk {
			blk[i].h = h
			h.timerFree = append(h.timerFree, &blk[i])
		}
	}
	n := len(h.timerFree)
	rec := h.timerFree[n-1]
	h.timerFree[n-1] = nil
	h.timerFree = h.timerFree[:n-1]
	rec.fn, rec.arg = fn, arg
	return rec
}

func (h *Host) putTimerRec(rec *timerRec) {
	rec.fn, rec.arg = nil, nil
	h.timerFree = append(h.timerFree, rec)
}

// Option customizes a Host.
type Option func(*Host)

// WithTrace attaches a trace sink to the host.
func WithTrace(s trace.Sink) Option {
	return func(h *Host) { h.sink = s }
}

// New creates a host, attaches it to the transport, and returns it. The
// host does not run protocols until Boot is called, so scenarios can finish
// wiring before any traffic flows. rt is typically a *sim.Kernel (which
// implements transport.Runtime directly); net is any transport backend —
// *radio.Medium, or a *transport.LinkTransport (a daemon's, or the one in
// a radio.Port).
func New(rt transport.Runtime, net transport.Transport, id wire.NodeID, pos geo.Point, opts ...Option) *Host {
	h := &Host{
		id:    id,
		pos:   pos,
		clock: rt,
		net:   net,
		sink:  trace.Nop{},
	}
	for _, opt := range opts {
		opt(h)
	}
	_, nop := h.sink.(trace.Nop)
	h.tracing = !nop
	net.Attach(h)
	return h
}

// ID implements transport.Receiver.
func (h *Host) ID() wire.NodeID { return h.id }

// Pos implements transport.Receiver.
func (h *Host) Pos() geo.Point { return h.pos }

// Operational implements transport.Receiver: true until the host crashes. A
// sleeping host is NOT operational for radio purposes — it can neither send
// nor receive — but it has not failed.
func (h *Host) Operational() bool { return !h.crashed && !h.radioOff }

// Deliver implements transport.Receiver by fanning the message out to the
// protocol stack.
func (h *Host) Deliver(m wire.Message, from wire.NodeID) {
	if h.crashed || !h.started || h.radioOff {
		return
	}
	for _, p := range h.protocols {
		p.Handle(h, m, from)
	}
}

// Use attaches a protocol. It panics after Boot: the stack is fixed at
// startup so message dispatch order is deterministic.
func (h *Host) Use(p Protocol) {
	if h.started {
		panic(fmt.Sprintf("node: Use on already-booted host %v", h.id))
	}
	h.protocols = append(h.protocols, p)
}

// Boot starts every attached protocol. It is idempotent.
func (h *Host) Boot() {
	if h.started || h.crashed {
		return
	}
	h.started = true
	for _, p := range h.protocols {
		p.Start(h)
	}
}

// Crash fail-stops the host: it immediately becomes silent and deaf, and
// pending timers never fire. Crashing twice is a no-op.
func (h *Host) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	h.sink.Emit(trace.Event{
		At: h.clock.Now(), Type: trace.TypeCrash, Node: uint32(h.id),
	})
}

// Crashed reports whether the host has fail-stopped.
func (h *Host) Crashed() bool { return h.crashed }

// Send transmits m over the transport. Crashed and sleeping hosts transmit
// nothing.
func (h *Host) Send(m wire.Message) {
	if h.crashed || h.radioOff {
		return
	}
	h.net.Send(h.id, m)
}

// SleepRadio turns the radio off until the given absolute virtual time.
// Protocol timers keep firing (their sends are silently dropped), so epoch
// loops survive the nap. Sleeping again extends or shortens the wake time.
func (h *Host) SleepRadio(until sim.Time) {
	if h.crashed || until <= h.Now() {
		return
	}
	h.radioOff = true
	h.wakeAt = until
	h.AfterArg(until-h.Now(), wakeRadioFn, h)
}

// wakeRadioFn ends a nap. Only the timer matching the latest wake deadline
// wakes the radio; stale timers from superseded naps are no-ops.
var wakeRadioFn sim.ArgHandler = func(a any) {
	if h := a.(*Host); h.Now() >= h.wakeAt {
		h.radioOff = false
	}
}

// Asleep reports whether the radio is currently off.
func (h *Host) Asleep() bool { return h.radioOff }

// After schedules fn on the kernel; the callback is suppressed if the host
// has crashed by the time it fires (a dead process runs no code). Pass a
// long-lived fn (a stored per-protocol func, not a fresh closure) to keep the
// call allocation-free.
func (h *Host) After(d sim.Time, fn func()) Timer {
	return h.AfterArg(d, callFn, fn)
}

// AfterArg schedules fn(arg) with After's crash-guard semantics. It lets
// protocols thread pooled per-event records through one long-lived handler,
// the same trick sim.Kernel.ScheduleArg enables one layer down.
func (h *Host) AfterArg(d sim.Time, fn sim.ArgHandler, arg any) Timer {
	rec := h.takeTimerRec(fn, arg)
	return Timer{rec: rec, t: h.clock.ScheduleArg(d, fireTimerFn, rec)}
}

// Timer is the handle of a pending After or AfterArg timer. The zero value is
// disarmed, and a handle may be copied: every copy reads the same kernel
// event.
type Timer struct {
	rec *timerRec
	t   sim.Timer
}

// Cancel stops the timer from firing and hands its record back to the host's
// pool at once. The kernel never reads a canceled event's argument, so the
// record is free for the next timer while the dead event waits in the queue.
// Canceling a fired or canceled timer is a no-op.
func (t Timer) Cancel() {
	if t.t.Active() {
		t.t.Cancel()
		t.rec.h.putTimerRec(t.rec)
	}
}

// Active reports whether the timer is pending: armed, and neither fired nor
// canceled.
func (t Timer) Active() bool { return t.t.Active() }

// AfterBatched schedules fn like After but coalesces all callbacks landing
// on the same instant — across every host on the kernel — into one kernel
// event (see sim.Kernel.AtBatched). There is no cancellation handle, so it
// suits the unconditional phase events of the epoch schedule: boundaries and
// round ends, which every host hits at identical offsets.
func (h *Host) AfterBatched(d sim.Time, fn func()) {
	h.clock.AtBatched(h.clock.Now()+d, fireTimerFn, h.takeTimerRec(callFn, fn))
}

// Now returns the current virtual time.
func (h *Host) Now() sim.Time { return h.clock.Now() }

// Rand returns the runtime's deterministic random source.
func (h *Host) Rand() *rand.Rand { return h.clock.Rand() }

// Energy returns the host's available energy per the transport's meter.
func (h *Host) Energy() float64 { return h.net.Energy(h.id) }

// Trace emits a structured trace event attributed to this host.
func (h *Host) Trace(t trace.EventType, detail string) {
	h.sink.Emit(trace.Event{At: h.clock.Now(), Type: t, Node: uint32(h.id), Detail: detail})
}

// Tracing reports whether a real trace sink is attached. Hot paths consult
// it before building Sprintf detail strings, so benchmark and headless runs
// (Nop sink) pay nothing for tracing they discard.
func (h *Host) Tracing() bool { return h.tracing }

// MoveTo repositions the host and informs the transport. Provided for
// migration extensions; the core experiments keep hosts stationary.
func (h *Host) MoveTo(p geo.Point) {
	old := h.pos
	h.pos = p
	h.net.UpdatePos(h.id, old)
}
