// Package par runs one full-fidelity replica — real node.Host runtimes with
// the production cluster/fds/intercluster protocol stack — across a pool of
// worker threads, putting idle cores to work inside a single simulation
// instead of only across Monte-Carlo replicas.
//
// # Architecture
//
// The field is cut into a FIXED number of vertical strips (a pure function of
// the configuration, never of the worker count). Each strip owns the hosts
// whose x-coordinate falls inside it: their own *sim.Kernel (heap, virtual
// clock), their trace buffer, and their decode scratch. Strip width defaults
// to the radio range, so most traffic — everything within a cluster, and most
// inter-cluster relays — stays strip-local and goes through the strip kernel
// exactly as in the serial engine.
//
// The medium is the serial world's, not a copy: Build checks it with
// radio.Params.Validate, each sender's static neighbor roster is radio.Roster
// (radio.Medium's grid query and range test), and energy goes through
// transport.EnergyParams' TxCost, RxCost and Available, as the medium's does.
//
// Strips advance in lockstep conservative windows of width W = Radio.MinDelay,
// the lower bound on delivery latency (the same lookahead internal/shard uses
// at million-host scale). An event processed at time t inside the closed
// window [t0, t0+W] can reach another strip only through a radio delivery
// landing at t+delay >= t+W >= t0+W — at or after the window's end, the
// instant every strip has drained to — so strips process a window in parallel
// with no communication. Cross-strip deliveries are batched into
// per-(src,dst) outboxes and injected at the serial window barrier. Between
// bursts of activity the barrier jumps the window start to the earliest
// pending event over all strips, so the 10-second idle stretch between FDS
// epochs costs one barrier, not ten thousand. That loop and its worker pool
// are sim.RunWindows, shared with internal/shard; this package contributes
// the strips' drain and the outbox merge.
//
// # Determinism at every worker count
//
// Results are a pure function of Config; the Workers field changes wall-clock
// time only. That holds by construction:
//
//   - The strip partition and the window grid are computed serially from the
//     configuration and the strips' (deterministic) event streams.
//   - Every random draw a protocol makes comes from its host's private
//     *rand.Rand, seeded from (Seed, NID) — never from a kernel shared with
//     other hosts. Loss and delay are drawn by the SENDER, from the sender's
//     stream, for every host on the sender's static neighbor roster
//     regardless of the neighbor's aliveness (aliveness is checked at
//     delivery, in the receiver's strip), so stream consumption never depends
//     on remote state.
//   - Cross-strip deliveries are injected at the barrier in sorted
//     (at, src strip, src seq) order, where src seq is the outbox append
//     counter — itself deterministic because strip execution is.
//   - Trace events are buffered per strip and folded strip-by-strip into the
//     hash; workers never touch another strip's buffer.
//
// The topology is static (no mobility, no replenishment) and there is no
// global monitor: completeness is probed serially after the run.
package par

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// Config describes a parallel replica. Results are a pure function of every
// field except Workers.
type Config struct {
	// Seed drives all randomness: placement, per-host streams, crash picks.
	Seed int64
	// Nodes is the host population, numbered 1..Nodes.
	Nodes int
	// FieldSide is the deployment square's edge length in meters.
	FieldSide float64
	// LossProb is the per-receiver loss probability p.
	LossProb float64
	// Timing is the protocol schedule; zero means cluster.DefaultTiming().
	Timing cluster.Timing
	// Strips is the fixed partition count; values < 1 pick
	// max(1, min(16, FieldSide/Range)) — strip width ≈ the radio range.
	Strips int
	// Workers is the pool draining strips inside a window; < 1 means 1. Any
	// value produces bit-identical results.
	Workers int
	// CollectTrace buffers protocol trace events per strip so TraceHash
	// covers them; leave false in benchmarks (hosts then skip building
	// detail strings entirely).
	CollectTrace bool
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.FieldSide <= 0 {
		c.FieldSide = 500
	}
	if !c.Timing.Valid() {
		c.Timing = cluster.DefaultTiming()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// crossEntry is one cross-strip delivery waiting at the window barrier.
type crossEntry struct {
	at      sim.Time
	src     int32  // source strip, part of the canonical injection key
	seq     uint32 // source strip's outbox append counter
	to      uint32 // receiver host index
	from    wire.NodeID
	payload []byte
}

// strip is one vertical slice of the field with its own kernel and buffers.
// During a window, a strip is touched by exactly one worker; everything in
// here (and every host row the strip owns) is single-threaded by that.
type strip struct {
	k       *sim.Kernel
	out     [][]crossEntry // per destination strip, this window's sends
	seqCtr  uint32
	scratch *wire.DecodeScratch
	free    []*flight     // recycled flights of this strip's sends
	freeIn  []*flight     // recycled flights of barrier arrivals: far larger, so pooled apart
	enc     []byte        // the current encode chunk; see encode
	events  []trace.Event // protocol trace buffer (CollectTrace)
	sends   uint64
	deliv   uint64
}

// stripSink appends trace events to the owning strip's buffer.
type stripSink struct{ s *strip }

func (ss stripSink) Emit(e trace.Event) { ss.s.events = append(ss.s.events, e) }

// hostRuntime is the per-host transport.Runtime facade: the strip's kernel
// for time and scheduling, a private seeded source for randomness.
type hostRuntime struct {
	k   *sim.Kernel
	rng *rand.Rand
}

func (r *hostRuntime) Now() sim.Time    { return r.k.Now() }
func (r *hostRuntime) Rand() *rand.Rand { return r.rng }
func (r *hostRuntime) ScheduleArg(d sim.Time, fn sim.ArgHandler, a any) sim.Timer {
	return r.k.ScheduleArg(d, fn, a)
}
func (r *hostRuntime) AtBatched(at sim.Time, fn sim.ArgHandler, a any) { r.k.AtBatched(at, fn, a) }

var _ transport.Runtime = (*hostRuntime)(nil)

// stripPort is the transport facade handed to the hosts of one strip.
type stripPort struct {
	e *Engine
	s int32
}

func (p *stripPort) Attach(r transport.Receiver)           { p.e.hosts[r.ID()-1] = r.(*node.Host) }
func (p *stripPort) Send(from wire.NodeID, m wire.Message) { p.e.send(p.s, from, m) }
func (p *stripPort) Energy(id wire.NodeID) float64         { return p.e.energyOf(id) }
func (p *stripPort) UpdatePos(wire.NodeID, geo.Point) {
	panic("par: static topology — mobility is not supported")
}

// flight is one delivery run in a strip's kernel (sim.Run: one heap entry
// however many receivers), pooled per strip. A send's same-strip receivers
// share from and payload, and each item's Tag is the receiver's host index; a
// window barrier's arrivals each bring their own in cross, and Tag indexes
// that. The flight belongs to the kernel from ScheduleRun until its last item
// has fired, and then returns to the free list it was made for.
type flight struct {
	run     sim.Run
	e       *Engine
	s       int32
	pool    *[]*flight
	from    wire.NodeID
	payload []byte
	cross   []crossEntry
}

// takeFlight pops a flight from pool, one of strip s's two free lists, or
// makes one.
func (e *Engine) takeFlight(s int32, pool *[]*flight) *flight {
	if n := len(*pool); n > 0 {
		f := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return f
	}
	return &flight{e: e, s: s, pool: pool}
}

// putFlight recycles f, dropping its payload references so the pool pins no
// encode chunk.
func putFlight(f *flight) {
	clear(f.cross)
	f.cross, f.payload = f.cross[:0], nil
	*f.pool = append(*f.pool, f)
}

// Engine is a built, runnable parallel replica.
type Engine struct {
	cfg    Config
	params radio.Params

	strips  []strip
	stripOf []int32 // host idx -> strip

	hosts []*node.Host
	fdss  []*fds.Protocol
	cls   []*cluster.Protocol
	rngs  []*rand.Rand
	pos   []geo.Point
	spent []float64 // per-host energy expenditure; row owned by its strip

	// Static neighbor CSR (radio.Roster): ascending receiver index per sender.
	nbStart []int32
	nbList  []uint32

	crashSched map[wire.NodeID]sim.Time // harness-side crash schedule
	ctrl       *rand.Rand               // control stream for CrashRandom picks

	epochsRun int
	now       sim.Time
}

// land completes one delivery of a flight — aliveness check at the receiver,
// energy charge, decode into the strip scratch, dispatch — and recycles the
// flight after its last.
func land(a any, it sim.RunItem) {
	f := a.(*flight)
	to, from, payload := it.Tag, f.from, f.payload
	if len(f.cross) > 0 {
		ce := &f.cross[it.Tag]
		to, from, payload = ce.to, ce.from, ce.payload
	}
	f.e.deliver(f.s, to, from, payload)
	if f.run.Done() {
		putFlight(f)
	}
}

func (e *Engine) deliver(s int32, to uint32, from wire.NodeID, payload []byte) {
	h := e.hosts[to]
	if h == nil || !h.Operational() {
		return
	}
	e.spent[to] += e.params.RxCost(len(payload))
	m, err := wire.DecodeInto(e.strips[s].scratch, payload)
	if err != nil {
		panic(fmt.Sprintf("par: decode on delivery: %v", err))
	}
	e.strips[s].deliv++
	h.Deliver(m, from)
}

// encChunk is the size of a strip's encode chunk: a few hundred messages.
const encChunk = 64 << 10

// encode returns m's wire bytes, carved from the strip's current chunk. A
// payload is written once and then only read — by this strip's deliveries
// and, after a barrier, by other strips' — so it needs no owner: a full chunk
// is simply left to the collector, which frees it when its last delivery has
// fired.
func (st *strip) encode(m wire.Message) []byte {
	if cap(st.enc)-len(st.enc) < m.WireSize() {
		st.enc = make([]byte, 0, max(encChunk, m.WireSize()))
	}
	off := len(st.enc)
	st.enc = wire.EncodeAppend(st.enc, m)
	return st.enc[off:len(st.enc):len(st.enc)]
}

// send broadcasts m from host `from` (which lives in strip s). Loss and delay
// are drawn from the sender's stream for every static roster neighbor, in
// ascending receiver order, independent of receiver state. Same-strip
// receivers become one flight; outbox appends consume no kernel seq, so the
// flight's consecutive seqs are the ones individual events would have taken.
func (e *Engine) send(s int32, from wire.NodeID, m wire.Message) {
	idx := uint32(from - 1)
	st := &e.strips[s]
	payload := st.encode(m)
	e.spent[idx] += e.params.TxCost(len(payload))
	st.sends++
	rng := e.rngs[idx]
	span := int64(e.params.MaxDelay - e.params.MinDelay)
	now := st.k.Now()
	f := e.takeFlight(s, &st.free)
	f.from, f.payload = from, payload
	items := f.run.Items[:0]
	for _, nb := range e.nbList[e.nbStart[idx]:e.nbStart[idx+1]] {
		if p := e.params.LossProb; p > 0 && rng.Float64() < p {
			continue
		}
		at := now + e.params.MinDelay
		if span > 0 {
			at += sim.Time(rng.Int63n(span + 1))
		}
		if d := e.stripOf[nb]; d == s {
			items = append(items, sim.RunItem{At: at, Tag: nb})
		} else {
			st.out[d] = append(st.out[d], crossEntry{
				at: at, src: s, seq: st.seqCtr,
				to: nb, from: from, payload: payload,
			})
			st.seqCtr++
		}
	}
	f.run.Items = items
	if len(items) > 0 {
		st.k.ScheduleRun(&f.run, land, f)
		return
	}
	putFlight(f)
}

// energyOf is host id's available energy under the medium's energy model.
// Only the owning strip calls it (via the host's own protocols), so reading
// the spent row is race-free.
func (e *Engine) energyOf(id wire.NodeID) float64 {
	idx := id - 1
	return e.params.Available(e.spent[idx], e.strips[e.stripOf[idx]].k.Now())
}

// Build lays out the field, partitions it into strips, and boots every host.
func Build(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	params := radio.Defaults(cfg.LossProb)
	if err := params.Validate(); err != nil {
		panic(err)
	}

	nStrips := cfg.Strips
	if nStrips < 1 {
		nStrips = int(cfg.FieldSide / params.Range)
		if nStrips > 16 {
			nStrips = 16
		}
		if nStrips < 1 {
			nStrips = 1
		}
	}

	n := cfg.Nodes
	e := &Engine{
		cfg:        cfg,
		params:     params,
		strips:     make([]strip, nStrips),
		stripOf:    make([]int32, n),
		hosts:      make([]*node.Host, n),
		fdss:       make([]*fds.Protocol, n),
		cls:        make([]*cluster.Protocol, n),
		rngs:       make([]*rand.Rand, n),
		pos:        make([]geo.Point, n),
		spent:      make([]float64, n),
		crashSched: make(map[wire.NodeID]sim.Time),
		ctrl:       rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
	}
	for s := range e.strips {
		e.strips[s].k = sim.New(cfg.Seed + int64(s) + 1)
		e.strips[s].out = make([][]crossEntry, nStrips)
		e.strips[s].scratch = wire.NewDecodeScratch()
	}

	// Placement: one (x, y) pair per host in NID order from a dedicated
	// source — a pure function of Seed, independent of Strips.
	place := rand.New(rand.NewSource(cfg.Seed))
	stripW := cfg.FieldSide / float64(nStrips)
	for i := 0; i < n; i++ {
		e.pos[i] = geo.Point{X: place.Float64() * cfg.FieldSide, Y: place.Float64() * cfg.FieldSide}
		s := int(e.pos[i].X / stripW)
		if s >= nStrips {
			s = nStrips - 1
		}
		e.stripOf[i] = int32(s)
		e.rngs[i] = rand.New(rand.NewSource(cfg.Seed ^ (int64(i+1) * 0x9E3779B97F4A7C)))
	}

	e.nbStart, e.nbList = radio.Roster(e.pos, params.Range)

	// Hosts: the production stack on a per-host runtime facade, booted at
	// time zero exactly like scenario.Build.
	ports := make([]*stripPort, nStrips)
	for s := range ports {
		ports[s] = &stripPort{e: e, s: int32(s)}
	}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i + 1)
		s := e.stripOf[i]
		var sink trace.Sink = trace.Nop{}
		if cfg.CollectTrace {
			sink = stripSink{s: &e.strips[s]}
		}
		rt := &hostRuntime{k: e.strips[s].k, rng: e.rngs[i]}
		h := node.New(rt, ports[s], id, e.pos[i], node.WithTrace(sink))
		cl := cluster.New(cluster.Config{Timing: cfg.Timing})
		f := fds.New(fds.DefaultConfig(cfg.Timing), cl)
		fw := intercluster.New(intercluster.DefaultConfig(cfg.Timing), cl, f)
		h.Use(cl)
		h.Use(f)
		h.Use(fw)
		e.cls[i] = cl
		e.fdss[i] = f
		h.Boot()
	}
	return e
}

// CrashAt schedules a fail-stop crash of id at the given absolute time, which
// must not be earlier than the last RunEpochs horizon. Call between runs
// (serial), never concurrently with one.
func (e *Engine) CrashAt(at sim.Time, id wire.NodeID) {
	if id < 1 || int(id) > len(e.hosts) {
		panic(fmt.Sprintf("par: no host %v", id))
	}
	h := e.hosts[id-1]
	e.crashSched[id] = at
	e.strips[e.stripOf[id-1]].k.At(at, func() {
		if !h.Crashed() {
			h.Crash()
		}
	})
}

// CrashRandomAt schedules count crashes of distinct not-yet-scheduled hosts
// at the given time, picked deterministically from the control stream.
func (e *Engine) CrashRandomAt(at sim.Time, count int) []wire.NodeID {
	var candidates []wire.NodeID
	for i := range e.hosts {
		id := wire.NodeID(i + 1)
		if _, done := e.crashSched[id]; !done && !e.hosts[i].Crashed() {
			candidates = append(candidates, id)
		}
	}
	e.ctrl.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if count > len(candidates) {
		count = len(candidates)
	}
	picked := append([]wire.NodeID(nil), candidates[:count]...)
	for _, id := range picked {
		e.CrashAt(at, id)
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return picked
}

// RunEpochs advances the replica through n MORE heartbeat intervals, from
// where the last call stopped: RunEpochs(3) followed by RunEpochs(5) runs
// eight intervals in all. (scenario.World.RunEpochs counts the other way, TO
// epoch n.) It panics on a negative n.
func (e *Engine) RunEpochs(n int) {
	if n < 0 {
		panic(fmt.Sprintf("par: RunEpochs(%d): negative epoch count", n))
	}
	e.epochsRun += n
	e.runTo(e.cfg.Timing.EpochStart(wire.Epoch(e.epochsRun)))
}

// runTo advances every strip to the deadline through sim.RunWindows: closed
// windows [t, t+W] with W = Radio.MinDelay, strips drained in parallel,
// outboxes merged at the serial barrier.
func (e *Engine) runTo(deadline sim.Time) {
	sim.RunWindows(len(e.strips), e.cfg.Workers, e.params.MinDelay, deadline,
		func(s int) (sim.Time, bool) { return e.strips[s].k.NextEventAt() },
		func(s int, end sim.Time) { e.strips[s].k.RunUntil(end) },
		e.mergeOutboxes)

	// Advance every idle clock to the deadline so the next call resumes
	// from a common now.
	for s := range e.strips {
		e.strips[s].k.RunUntil(deadline)
	}
	e.now = deadline
}

// mergeOutboxes injects every pending cross-strip delivery into its
// destination kernel in canonical (at, src, seq) order, as one flight per
// destination. Serial: it is the window barrier, and end is the instant every
// strip has just drained to.
func (e *Engine) mergeOutboxes(end sim.Time) {
	for d := range e.strips {
		var f *flight
		for s := range e.strips {
			if box := e.strips[s].out[d]; len(box) > 0 {
				if f == nil {
					f = e.takeFlight(int32(d), &e.strips[d].freeIn)
				}
				f.cross = append(f.cross, box...)
				clear(box)
				e.strips[s].out[d] = box[:0]
			}
		}
		if f == nil {
			continue
		}
		slices.SortFunc(f.cross, func(a, b crossEntry) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
		})
		items := f.run.Items[:0]
		for i := range f.cross {
			at := f.cross[i].at
			if at < end {
				// The destination already drained past at; scheduling it
				// "now" would silently reorder the run.
				panic(fmt.Sprintf("par: conservative window invariant violated: cross-strip delivery at %d inside window ending %d", at, end))
			}
			items = append(items, sim.RunItem{At: at, Tag: uint32(i)})
		}
		f.run.Items = items
		e.strips[d].k.ScheduleRun(&f.run, land, f)
	}
}

// Now returns the last barrier time.
func (e *Engine) Now() sim.Time { return e.now }

// Strips returns the fixed partition count.
func (e *Engine) Strips() int { return len(e.strips) }

// Sends returns the fleet-wide transmission count.
func (e *Engine) Sends() uint64 {
	var t uint64
	for s := range e.strips {
		t += e.strips[s].sends
	}
	return t
}

// Deliveries returns the fleet-wide delivery count.
func (e *Engine) Deliveries() uint64 {
	var t uint64
	for s := range e.strips {
		t += e.strips[s].deliv
	}
	return t
}

// Completeness reports, for a crashed subject, how many operational hosts
// currently suspect it and how many operational hosts there are. Serial.
func (e *Engine) Completeness(subject wire.NodeID) (aware, operational int) {
	for i := range e.hosts {
		id := wire.NodeID(i + 1)
		if id == subject || e.hosts[i].Crashed() {
			continue
		}
		operational++
		if e.fdss[i].IsSuspected(subject) {
			aware++
		}
	}
	return aware, operational
}

// TraceHash folds the per-strip trace buffers (strip order, emission order
// within a strip) and every host's final failure knowledge into one hex
// digest — the parallel path's golden fingerprint. Serial.
func (e *Engine) TraceHash() string {
	h := sha256.New()
	var b [8]byte
	for s := range e.strips {
		for _, ev := range e.strips[s].events {
			binary.LittleEndian.PutUint64(b[:], uint64(ev.At))
			h.Write(b[:])
			h.Write([]byte(ev.Type))
			binary.LittleEndian.PutUint64(b[:], uint64(ev.Node))
			h.Write(b[:])
			h.Write([]byte(ev.Detail))
			h.Write([]byte{'\n'})
		}
	}
	for i := range e.hosts {
		for _, f := range e.fdss[i].KnownFailed() {
			binary.LittleEndian.PutUint64(b[:], uint64(i+1)<<32|uint64(f))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
