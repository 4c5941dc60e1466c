// Package radio implements the ad hoc wireless medium the paper's analysis
// postulates (Sections 2.2 and 5):
//
//   - unit-disk propagation: every host within transmission range R of a
//     sender may hear a transmission (symmetric links, equal ranges);
//   - promiscuous receiving: a transmission reaches ALL in-range hosts, not
//     only the addressed ones — "send" and "broadcast" coincide;
//   - independent per-receiver Bernoulli loss with probability p;
//   - bounded delivery delay: every successful delivery lands within Thop.
//
// The medium also keeps the bookkeeping the evaluation needs: per-kind
// message and byte counters, drop counts, and a per-host energy meter with
// solar harvest (Section 2.1 assumes hosts harvest energy, which is what
// makes periodic heartbeat diffusion feasible).
package radio

import (
	"errors"
	"fmt"

	"clusterfds/internal/geo"
	"clusterfds/internal/metrics"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Receiver is the surface a host exposes to the medium. It is exactly the
// sans-I/O boundary's receiver contract: the medium is one Transport
// backend among several (see internal/transport).
type Receiver = transport.Receiver

// The medium implements the transport-agnostic network interface, and is
// the Broadcaster under its ports' LinkTransports.
var (
	_ transport.Transport   = (*Medium)(nil)
	_ transport.Broadcaster = (*Medium)(nil)
	_ transport.Transport   = (*Port)(nil)
)

// Params configures the medium. Zero values are filled in by Defaults.
type Params struct {
	// Range is the transmission range R in meters (paper: 100 m).
	Range float64
	// LossProb is the per-receiver message loss probability p.
	LossProb float64
	// MinDelay and MaxDelay bound the uniform delivery delay; MaxDelay
	// plays the role of Thop, the per-hop bound the round timeouts use.
	MinDelay, MaxDelay sim.Time
	// EnergyParams is the per-host energy model. Its fields and its cost
	// methods are promoted: the strip engine charges through p.TxCost,
	// p.RxCost and p.Available, as the medium's Meter does; the sharded
	// engine reads the fields.
	transport.EnergyParams
}

// Validate reports whether p describes a medium: a positive range, a loss
// probability in [0,1] and MaxDelay >= MinDelay. New and the strip engine
// panic with its error.
func (p Params) Validate() error {
	switch {
	case p.Range <= 0:
		return errors.New("radio: non-positive transmission range")
	case p.LossProb < 0 || p.LossProb > 1:
		return fmt.Errorf("radio: loss probability %v outside [0,1]", p.LossProb)
	case p.MaxDelay < p.MinDelay:
		return errors.New("radio: MaxDelay < MinDelay")
	}
	return nil
}

// Defaults returns the parameter set used throughout the experiments:
// R = 100 m, p as given, Thop = 20 ms, and transport.DefaultEnergy.
func Defaults(lossProb float64) Params {
	return Params{
		Range:        100,
		LossProb:     lossProb,
		MinDelay:     1e6,  // 1 ms
		MaxDelay:     12e6, // 12 ms; with <=5 ms send jitter, still < Thop = 20 ms
		EnergyParams: transport.DefaultEnergy(),
	}
}

// Medium is the shared wireless channel. It is not safe for concurrent use;
// like everything else it runs inside the single-threaded kernel.
type Medium struct {
	kernel *sim.Kernel
	params Params
	sink   trace.Sink

	// hosts is the dense table of attached hosts in attach order; a host's
	// index in it — its slot — is what the grid stores and what a delivery
	// record carries, so the fan-out path resolves receiver and NID with one
	// indexed load. slotOf maps a NID to its slot for the per-call entry
	// points (Send's sender, UpdatePos).
	hosts  []host
	slotOf map[wire.NodeID]uint32
	grid   *grid

	// linkLoss overrides the global loss probability for specific directed
	// links; used by failure-injection tests.
	linkLoss map[[2]wire.NodeID]float64
	// silenced hosts have all their transmissions dropped (radio jamming /
	// partition injection).
	silenced map[wire.NodeID]bool

	// energy delegates to the shared transport meter, the one every
	// LinkTransport meters with, so a host on a port and the same host
	// attached directly spend bit-identical energy (the FDS forwarding
	// backoff is energy-biased, so this is a determinism requirement, not a
	// convenience).
	energy *transport.Meter

	// metrics is the counter backend. Per-kind counters resolve through the
	// txCount/rxCount handle arrays so the broadcast hot path performs no
	// map lookups and no allocations; the named handles below are resolved
	// once in New. When no registry is injected with WithMetrics, the
	// medium owns a private one.
	metrics          *metrics.Registry
	txCount, rxCount [256]*metrics.Counter
	txBytes          *metrics.Counter
	dropLoss         *metrics.Counter
	dropSilenced     *metrics.Counter
	dropRxDown       *metrics.Counter
	txSilencedMsgs   *metrics.Counter
	txSilencedBytes  *metrics.Counter

	// tracing is false when sink is the no-op sink, letting the hot paths
	// skip building event detail strings nobody will read.
	tracing bool
	// nearScratch is the reusable neighbor-query buffer of host slots. The
	// kernel is single-threaded and the buffer is never held across a
	// scheduled callback, so plain reuse is safe.
	nearScratch []uint32
	// scratch backs every delivery's decoded message. One suffices: a
	// decoded message is valid only during Deliver, and deliveries never
	// nest (a receiver that sends from inside Deliver only schedules).
	scratch *wire.DecodeScratch

	// txFree pools transmissions between broadcasts. maxFan is the largest
	// in-range count any Send has seen: a transmission's item slice is made
	// that long, so a pooled one is sized once rather than regrown by every
	// denser sender that draws it.
	txFree []*txBuf
	maxFan int
}

// host is one attached receiver's row in the dense table. Each delivery
// decodes the transmission's bytes afresh into the medium's scratch, so no
// receiver ever sees memory another one was handed (transmission cannot
// alias memory, paper Section 2.2) and steady-state delivery allocates
// nothing. The message handed to Deliver is valid only for the duration of
// the call; receivers that keep any part of it must copy. A host attached
// through a Port has its LinkTransport in lt, which decodes into its own
// scratch instead.
type host struct {
	rcv Receiver
	lt  *transport.LinkTransport
	id  wire.NodeID
}

// txBuf is one transmission in flight: the encoded bytes and the sorted
// per-receiver delivery run (one 16-byte item per surviving receiver, its
// Tag the receiver's slot), scheduled as ONE kernel entry. It belongs to the
// medium from Send or Broadcast until the run's last item has fired, and
// then returns to the pool.
type txBuf struct {
	m    *Medium
	buf  []byte
	run  sim.Run
	from wire.NodeID
	rxc  *metrics.Counter
}

// kind-tagged counter labels, precomputed so Send/deliver do not
// concatenate strings per message.
var txLabel, rxLabel [256]string

func init() {
	for k := 0; k < 256; k++ {
		txLabel[k] = "tx:" + wire.Kind(k).String()
		rxLabel[k] = "rx:" + wire.Kind(k).String()
	}
}

// Option customizes a Medium.
type Option func(*Medium)

// WithTrace attaches a trace sink to the medium.
func WithTrace(s trace.Sink) Option {
	return func(m *Medium) { m.sink = s }
}

// WithMetrics makes the medium record its counters into the given registry
// instead of a private one, so scenarios can export radio, FDS, and
// harness metrics as one snapshot. Passing nil keeps the private registry.
func WithMetrics(r *metrics.Registry) Option {
	return func(m *Medium) {
		if r != nil {
			m.metrics = r
		}
	}
}

// New creates a medium on the given kernel.
func New(kernel *sim.Kernel, params Params, opts ...Option) *Medium {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	m := &Medium{
		kernel:   kernel,
		params:   params,
		sink:     trace.Nop{},
		slotOf:   make(map[wire.NodeID]uint32),
		grid:     newGrid(params.Range),
		linkLoss: make(map[[2]wire.NodeID]float64),
		silenced: make(map[wire.NodeID]bool),
		scratch:  wire.NewDecodeScratch(),
	}
	m.energy = transport.NewMeter(params.EnergyParams, kernel)
	for _, opt := range opts {
		opt(m)
	}
	if m.metrics == nil {
		m.metrics = metrics.NewRegistry()
	}
	m.txBytes = m.metrics.Counter("tx-bytes")
	m.dropLoss = m.metrics.Counter("drop:loss")
	m.dropSilenced = m.metrics.Counter("drop:silenced")
	m.dropRxDown = m.metrics.Counter("drop:receiver-down")
	m.txSilencedMsgs = m.metrics.Counter("tx-silenced-msgs")
	m.txSilencedBytes = m.metrics.Counter("tx-silenced-bytes")
	_, nop := m.sink.(trace.Nop)
	m.tracing = !nop
	return m
}

// txCounter resolves the tx counter handle for a kind, registering it on
// first use so snapshots list only kinds that actually flowed.
func (m *Medium) txCounter(k wire.Kind) *metrics.Counter {
	c := m.txCount[k]
	if c == nil {
		c = m.metrics.Counter(txLabel[k])
		m.txCount[k] = c
	}
	return c
}

// rxCounter resolves the rx counter handle for a kind.
func (m *Medium) rxCounter(k wire.Kind) *metrics.Counter {
	c := m.rxCount[k]
	if c == nil {
		c = m.metrics.Counter(rxLabel[k])
		m.rxCount[k] = c
	}
	return c
}

// Params returns the medium's configuration.
func (m *Medium) Params() Params { return m.params }

// Attach registers a host with the medium. Attaching two hosts with the
// same NID is a configuration error and panics.
func (m *Medium) Attach(r Receiver) { m.attach(r, nil) }

// attach registers r's position and binds its receptions to lt, or to the
// medium's own decode when lt is nil.
func (m *Medium) attach(r Receiver, lt *transport.LinkTransport) {
	id := r.ID()
	if id == wire.NoNode {
		panic("radio: cannot attach node with NID 0")
	}
	if _, dup := m.slotOf[id]; dup {
		panic(fmt.Sprintf("radio: duplicate NID %v", id))
	}
	// The meter hands out slots in Track order, so a host's meter slot is its
	// slot here and a delivery's Tag charges the receiver directly.
	slot := m.energy.Track(id)
	m.hosts = append(m.hosts, host{rcv: r, lt: lt, id: id})
	m.slotOf[id] = slot
	m.grid.insert(slot, r.Pos())
}

// Port is one host's byte-path attachment to the medium: the
// transport.LinkTransport a live daemon runs, with the medium as its
// Broadcaster. Everything the host side of a link does — the operational
// check, energy metering, encode, decode into its own scratch, the send and
// delivery trace events — is LinkTransport's code; the medium decides only
// what the network decides (who is in range, loss, delay), with the fan-out
// Send uses. A port host's energy is its LinkTransport's Meter, which
// meters transport.DefaultEnergy; the medium's own meter never charges it.
type Port struct {
	*transport.LinkTransport
	m *Medium
}

// Link hands out a new port whose LinkTransport traces to the medium's sink.
// The host the port carries is placed by its Attach.
func (m *Medium) Link() *Port {
	lt := transport.NewLinkTransport(m.kernel, m, transport.WithLinkTrace(m.sink))
	return &Port{LinkTransport: lt, m: m}
}

// Attach registers the host's position with the medium, as Medium.Attach
// does, and binds the host to the port's LinkTransport.
func (p *Port) Attach(r Receiver) {
	p.m.attach(r, p.LinkTransport)
	p.LinkTransport.Attach(r)
}

// UpdatePos tells the medium the port's host moved.
func (p *Port) UpdatePos(id wire.NodeID, old geo.Point) { p.m.UpdatePos(id, old) }

// UpdatePos tells the medium a host moved. (The paper defers migration to
// future work; this exists so scenarios can reposition hosts between
// epochs.)
func (m *Medium) UpdatePos(id wire.NodeID, old geo.Point) {
	slot, ok := m.slotOf[id]
	if !ok {
		return
	}
	m.grid.move(slot, old, m.hosts[slot].rcv.Pos())
}

// Neighbors returns the NIDs of the operational hosts within range of the
// given point, excluding exclude. The slice is freshly allocated; callers
// on a hot path should prefer NeighborsAppend with a reused buffer.
func (m *Medium) Neighbors(at geo.Point, exclude wire.NodeID) []wire.NodeID {
	return m.NeighborsAppend(nil, at, exclude)
}

// NeighborsAppend appends the NIDs of the operational hosts within range of
// the given point (excluding exclude) to dst and returns it. Passing a
// buffer truncated with dst[:0] makes the query allocation-free once the
// buffer has grown to the neighborhood size. Order is deterministic (grid
// cell order), identical to Neighbors.
func (m *Medium) NeighborsAppend(dst []wire.NodeID, at geo.Point, exclude wire.NodeID) []wire.NodeID {
	m.nearScratch = m.grid.appendNear(m.nearScratch[:0], at)
	for _, slot := range m.nearScratch {
		h := &m.hosts[slot]
		if h.id == exclude {
			continue
		}
		if h.rcv.Operational() && at.WithinRange(h.rcv.Pos(), m.params.Range) {
			dst = append(dst, h.id)
		}
	}
	return dst
}

// SetLinkLoss overrides the loss probability on the directed link from ->
// to. Pass a negative probability to remove the override.
func (m *Medium) SetLinkLoss(from, to wire.NodeID, p float64) {
	key := [2]wire.NodeID{from, to}
	if p < 0 {
		delete(m.linkLoss, key)
		return
	}
	if p > 1 {
		p = 1
	}
	m.linkLoss[key] = p
}

// Silence makes every transmission from id vanish (on=true) or restores
// normal behaviour (on=false). Used by failure-injection tests to model a
// host whose radio fails while the host keeps running.
func (m *Medium) Silence(id wire.NodeID, on bool) {
	if on {
		m.silenced[id] = true
	} else {
		delete(m.silenced, id)
	}
}

// Send transmits m from the given host. Per the promiscuous model the
// message is offered to every in-range operational host; each delivery is
// independently lost with the configured probability and otherwise arrives
// after a uniform delay in [MinDelay, MaxDelay].
//
// Crashed or unattached senders transmit nothing (fail-stop: a crashed host
// is silent). The sender never receives its own transmission.
//
// Counter semantics for a silenced sender (radio jamming / partition
// injection): the host still believes it transmitted, so it is charged the
// full tx energy — a jammed radio burns power — but the attempt is NOT
// counted under tx:<kind>/tx-bytes, because those counters feed the
// message-cost experiments and nobody can hear the send. Silenced attempts
// are tallied separately under tx-silenced-msgs/tx-silenced-bytes (and the
// per-send drop:silenced), so partition studies can still account for them.
func (m *Medium) Send(from wire.NodeID, msg wire.Message) {
	fromSlot, ok := m.slotOf[from]
	if !ok || !m.hosts[fromSlot].rcv.Operational() {
		return
	}
	m.energy.ChargeTx(fromSlot, msg.WireSize())
	if m.tracing {
		m.sink.Emit(trace.Event{
			At: m.kernel.Now(), Type: trace.TypeSend, Node: uint32(from),
			Detail: msg.Kind().String(),
		})
	}
	// Encode once into a pooled transmission shared by every delivery. Each
	// delivery decodes the bytes at reception time into its receiver's
	// scratch, so hosts never share message memory and the whole path —
	// encode, schedule, decode, dispatch — reuses pooled storage in steady
	// state.
	tb := m.takeTxBuf()
	tb.buf = wire.EncodeAppend(tb.buf[:0], msg)
	m.transmit(fromSlot, tb)
}

// Broadcast implements transport.Broadcaster for the medium's ports: it
// carries one encoded message from an attached host through the fan-out
// Send uses. The sender's LinkTransport has already checked that its host is
// operational, charged it and traced the send; the payload is copied.
func (m *Medium) Broadcast(from wire.NodeID, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("radio: empty broadcast")
	}
	fromSlot, ok := m.slotOf[from]
	if !ok {
		return fmt.Errorf("radio: broadcast from unattached %v", from)
	}
	tb := m.takeTxBuf()
	tb.buf = append(tb.buf[:0], payload...)
	m.transmit(fromSlot, tb)
	return nil
}

// transmit schedules the surviving deliveries of the encoded transmission in
// tb as one kernel entry, or recycles tb at once if there are none.
func (m *Medium) transmit(fromSlot uint32, tb *txBuf) {
	if m.fanOut(fromSlot, tb) {
		m.kernel.ScheduleRun(&tb.run, receive, tb)
		return
	}
	// Silenced, or nobody survived the loss draws.
	m.txFree = append(m.txFree, tb)
}

// fanOut is the one fan-out of both Send and Broadcast: silencing, the tx
// counters, the in-range query and the per-receiver loss and delay draws,
// which fill tb's delivery run. It reports whether any delivery survived.
func (m *Medium) fanOut(fromSlot uint32, tb *txBuf) bool {
	from := m.hosts[fromSlot].id
	kind, size := wire.Kind(tb.buf[0]), len(tb.buf)
	if m.silenced[from] {
		m.dropSilenced.Add(1)
		m.txSilencedMsgs.Add(1)
		m.txSilencedBytes.Add(int64(size))
		return false
	}
	m.txCounter(kind).Add(1)
	m.txBytes.Add(int64(size))

	// The hosts in range, in grid cell order — the order loss and delay are
	// drawn in, and so the order of the seqs the deliveries take.
	origin := m.hosts[fromSlot].rcv.Pos()
	m.nearScratch = m.grid.appendNear(m.nearScratch[:0], origin)
	inRange := m.nearScratch[:0]
	for _, slot := range m.nearScratch {
		if slot != fromSlot && origin.WithinRange(m.hosts[slot].rcv.Pos(), m.params.Range) {
			inRange = append(inRange, slot)
		}
	}

	// The item slice is sized once (see maxFan).
	tb.from = from
	tb.rxc = m.rxCounter(kind) // resolved once; deliveries share the handle
	if cap(tb.run.Items) < len(inRange) {
		m.maxFan = max(m.maxFan, len(inRange))
		tb.run.Items = make([]sim.RunItem, 0, m.maxFan)
	}
	items := tb.run.Items[:0]
	now := m.kernel.Now()
	rng := m.kernel.Rand()
	span := int64(m.params.MaxDelay - m.params.MinDelay)
	for _, slot := range inRange {
		loss := m.params.LossProb
		if len(m.linkLoss) > 0 {
			if override, ok := m.linkLoss[[2]wire.NodeID{from, m.hosts[slot].id}]; ok {
				loss = override
			}
		}
		if rng.Float64() < loss {
			m.dropLoss.Add(1)
			if m.tracing {
				m.sink.Emit(trace.Event{
					At: now, Type: trace.TypeDrop, Node: uint32(m.hosts[slot].id),
					Detail: fmt.Sprintf("%s from %v", kind, from),
				})
			}
			continue
		}
		at := now + m.params.MinDelay
		if span > 0 {
			at += sim.Time(rng.Int63n(span + 1))
		}
		items = append(items, sim.RunItem{At: at, Tag: slot})
	}
	tb.run.Items = items
	return len(items) > 0
}

// receive completes one reception of a transmission: charge, count, decode
// into the medium's scratch, dispatch — or, for a port host, count and hand
// the bytes to its LinkTransport, which charges, decodes and dispatches. The decoded
// message is valid only during the Deliver call (see host). The transmission
// is recycled after the last reception's Deliver has returned, so a receiver
// that sends from inside it draws a different txBuf. (A plain function, not
// a method value: scheduling a transmission then allocates no closure.)
func receive(arg any, it sim.RunItem) {
	tb := arg.(*txBuf)
	m := tb.m
	h := &m.hosts[it.Tag]
	switch {
	case !h.rcv.Operational():
		m.dropRxDown.Add(1)
	case h.lt != nil:
		tb.rxc.Add(1)
		if err := h.lt.Inject(transport.Packet{From: tb.from, Payload: tb.buf}); err != nil {
			// The medium never corrupts messages; a rejected delivery is a
			// codec bug.
			panic(fmt.Sprintf("radio: port delivery: %v", err))
		}
	default:
		m.energy.ChargeRx(it.Tag, len(tb.buf))
		tb.rxc.Add(1)
		decoded, err := wire.DecodeInto(m.scratch, tb.buf)
		if err != nil {
			// The medium never corrupts messages (paper Section 2.2);
			// a decode failure is a codec bug.
			panic(fmt.Sprintf("radio: decode for delivery: %v", err))
		}
		if m.tracing {
			m.sink.Emit(trace.Event{
				At: m.kernel.Now(), Type: trace.TypeDeliver, Node: uint32(h.id),
				Detail: fmt.Sprintf("%s from %v", decoded.Kind(), tb.from),
			})
		}
		h.rcv.Deliver(decoded, tb.from)
	}
	if tb.run.Done() {
		m.txFree = append(m.txFree, tb)
	}
}

// takeTxBuf pops a pooled transmission or makes one.
func (m *Medium) takeTxBuf() *txBuf {
	if n := len(m.txFree); n > 0 {
		tb := m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		return tb
	}
	return &txBuf{m: m}
}

// Energy returns the host's available energy: initial budget plus harvest
// minus spend, floored at zero. The peer-forwarding backoff consults this
// (paper Section 4.2: the waiting period is "inversely proportional to the
// node's remaining energy").
func (m *Medium) Energy(id wire.NodeID) float64 { return m.energy.Energy(id) }

// EnergySpent returns the host's cumulative energy expenditure.
func (m *Medium) EnergySpent(id wire.NodeID) float64 { return m.energy.Spent(id) }

// TotalEnergySpent sums expenditure over all hosts — the system-level cost
// measure in the baseline comparisons. Hosts are summed in NID order so the
// floating-point total is identical across runs.
func (m *Medium) TotalEnergySpent() float64 { return m.energy.TotalSpent() }

// Counters returns a snapshot of the medium's tallies (tx/rx per kind,
// bytes, drops). Only nonzero tallies appear, matching the historical
// only-touched-names behaviour.
func (m *Medium) Counters() map[string]int64 {
	out := make(map[string]int64)
	add := func(name string, c *metrics.Counter) {
		if v := c.Value(); v != 0 {
			out[name] = v
		}
	}
	for k := 0; k < 256; k++ {
		add(txLabel[k], m.txCount[k])
		add(rxLabel[k], m.rxCount[k])
	}
	add("tx-bytes", m.txBytes)
	add("drop:loss", m.dropLoss)
	add("drop:silenced", m.dropSilenced)
	add("drop:receiver-down", m.dropRxDown)
	add("tx-silenced-msgs", m.txSilencedMsgs)
	add("tx-silenced-bytes", m.txSilencedBytes)
	return out
}

// Sent returns how many messages of the given kind have been transmitted
// (hearably — silenced attempts are excluded; see Send). Reads go through
// the precomputed per-kind handle, not a string lookup.
func (m *Medium) Sent(k wire.Kind) int64 { return m.txCount[k].Value() }

// Received returns how many deliveries of the given kind have completed.
func (m *Medium) Received(k wire.Kind) int64 { return m.rxCount[k].Value() }

// Dropped returns how many point-to-point deliveries were lost to the
// channel.
func (m *Medium) Dropped() int64 { return m.dropLoss.Value() }

// Metrics returns the registry the medium records into (the injected one,
// or the medium's private registry).
func (m *Medium) Metrics() *metrics.Registry { return m.metrics }
