package transport

import (
	"errors"
	"fmt"

	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// MeshParams configures the in-process mesh.
type MeshParams struct {
	// LossProb is the independent per-receiver loss probability, as in the
	// radio medium.
	LossProb float64
	// MinDelay and MaxDelay bound the uniform delivery delay.
	MinDelay, MaxDelay sim.Time
	// DupProb is the probability that a surviving delivery is duplicated
	// (a second copy with its own delay draw), modeling datagram duplication
	// a real UDP path can exhibit. Zero (the default, and the conformance
	// setting) draws no randomness at all, preserving draw-order parity with
	// the radio medium.
	DupProb float64
}

// DefaultMeshParams returns mesh parameters matching radio.Defaults: the
// same delay bounds, with the given loss probability and no duplication.
// Every port's LinkTransport meters DefaultEnergy, the radio's model, so
// the energy-biased forwarding backoff behaves identically on both.
func DefaultMeshParams(lossProb float64) MeshParams {
	return MeshParams{
		LossProb: lossProb,
		MinDelay: 1e6,  // 1 ms
		MaxDelay: 12e6, // 12 ms
	}
}

// Mesh is the deterministic in-process packet fabric: a fully connected
// broadcast domain with no geometry, sitting under one real LinkTransport per
// host exactly where a UDP socket or a ChanLink sits under a live daemon's.
// Port hands out a host's LinkTransport; everything a host-side transport
// does — operational checks, energy metering, encode, decode into its own
// scratch, send and delivery trace events — is LinkTransport's code, the code
// fdsd runs. The mesh decides only what a network decides: for every other
// port, in join order, whether a broadcast is lost, how long it takes, and
// whether it arrives twice.
//
// The per-receiver randomness draw sequence deliberately mirrors
// radio.Medium.Send (one Float64 loss draw always; one Int63n delay draw iff
// MaxDelay > MinDelay; duplication draws only when DupProb > 0), and a lost
// delivery emits the radio's drop event, so a run on a mesh with DupProb = 0
// consumes the kernel's random stream and fills the trace exactly as the
// equivalent single-cell radio run does. The differential conformance suite
// (internal/conformance) relies on this to assert trace-for-trace equality.
type Mesh struct {
	k      *sim.Kernel
	params MeshParams
	sink   trace.Sink // shared with every port's LinkTransport

	ports   []meshPort // join order; delivery iteration order
	tracing bool
}

type meshPort struct {
	id wire.NodeID
	lt *LinkTransport
}

// MeshOption customizes a Mesh.
type MeshOption func(*Mesh)

// WithMeshTrace attaches a trace sink to the mesh and to every port's
// LinkTransport.
func WithMeshTrace(s trace.Sink) MeshOption {
	return func(m *Mesh) { m.sink = s }
}

// NewMesh creates a mesh on the given kernel.
func NewMesh(k *sim.Kernel, params MeshParams, opts ...MeshOption) *Mesh {
	if params.LossProb < 0 || params.LossProb > 1 {
		panic(fmt.Sprintf("transport: mesh loss probability %v outside [0,1]", params.LossProb))
	}
	if params.DupProb < 0 || params.DupProb > 1 {
		panic(fmt.Sprintf("transport: mesh dup probability %v outside [0,1]", params.DupProb))
	}
	if params.MaxDelay < params.MinDelay {
		panic("transport: mesh MaxDelay < MinDelay")
	}
	m := &Mesh{k: k, params: params, sink: trace.Nop{}}
	for _, opt := range opts {
		opt(m)
	}
	_, nop := m.sink.(trace.Nop)
	m.tracing = !nop
	return m
}

// Port joins the mesh as id and returns the LinkTransport the host binds to.
// Join order is delivery-iteration order, so scenarios that want
// cross-backend parity must take ports in the order the other backend
// attaches hosts.
func (m *Mesh) Port(id wire.NodeID) *LinkTransport {
	if id == wire.NoNode {
		panic("transport: cannot join mesh with NID 0")
	}
	for i := range m.ports {
		if m.ports[i].id == id {
			panic(fmt.Sprintf("transport: duplicate mesh NID %v", id))
		}
	}
	lt := NewLinkTransport(m.k, m, WithLinkTrace(m.sink))
	m.ports = append(m.ports, meshPort{id: id, lt: lt})
	return lt
}

// Broadcast implements Broadcaster for every port. See the type comment for
// the draw-order contract with radio.Medium.Send.
func (m *Mesh) Broadcast(from wire.NodeID, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("transport: empty mesh broadcast")
	}
	// The sender's LinkTransport reuses payload for its next Send; every
	// delivery of this transmission shares one private copy.
	buf := append([]byte(nil), payload...)
	rng := m.k.Rand()
	for i := range m.ports {
		p := &m.ports[i]
		if p.id == from {
			continue
		}
		if rng.Float64() < m.params.LossProb {
			if m.tracing {
				m.sink.Emit(trace.Event{
					At: m.k.Now(), Type: trace.TypeDrop, Node: uint32(p.id),
					Detail: fmt.Sprintf("%s from %v", wire.Kind(buf[0]), from),
				})
			}
			continue
		}
		m.scheduleDelivery(p.lt, from, buf)
		if m.params.DupProb > 0 && rng.Float64() < m.params.DupProb {
			m.scheduleDelivery(p.lt, from, buf)
		}
	}
	return nil
}

// scheduleDelivery draws the delivery delay for one receiver (consuming one
// Int63n iff the delay window is non-degenerate, as the radio does) and
// schedules the reception.
func (m *Mesh) scheduleDelivery(to *LinkTransport, from wire.NodeID, buf []byte) {
	delay := m.params.MinDelay
	if span := m.params.MaxDelay - m.params.MinDelay; span > 0 {
		delay += sim.Time(m.k.Rand().Int63n(int64(span) + 1))
	}
	m.k.Schedule(delay, func() {
		if err := to.Inject(Packet{From: from, Payload: buf}); err != nil {
			// The mesh never corrupts messages; a rejected datagram is a
			// codec bug.
			panic(fmt.Sprintf("transport: mesh delivery: %v", err))
		}
	})
}

var _ Broadcaster = (*Mesh)(nil)
