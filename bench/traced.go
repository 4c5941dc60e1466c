package main

import (
	"math/rand"
	"time"

	"clusterfds/internal/baseline"
	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/metrics"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sim"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// The traced serial world. The benchmark measures every layer from outside,
// through its public functions: this file assembles the field scenario.Build
// would assemble — same constructors, same order, same random draws — but
// puts a benchmark-owned wrapper at each layer boundary:
//
//	tracedProtocol  around each stack layer     times Start / Handle
//	tracedMedium    around *radio.Medium        times Send
//	tracedReceiver  around each *node.Host      times Deliver
//	tracedRuntime   around *sim.Kernel          tags each armed timer with
//	                                            the layer that armed it and
//	                                            times the callback
//
// The replica is valid only if its counters and final suspicion state equal
// the untraced scenario.Build run's (same fingerprint); the harness fails
// otherwise.

// layer identifies a module of the stack.
type layer uint8

const (
	layNode layer = iota
	layRadio
	layCluster
	layFDS
	layInter
	layBaseline
	numLayers
)

var layerNames = [numLayers]string{"node", "radio", "cluster", "fds", "intercluster", "baseline"}

// spanKind is what a span covers within its layer.
type spanKind uint8

const (
	kindStart   spanKind = iota // Protocol.Start
	kindHandle                  // Protocol.Handle
	kindTimer                   // a timer callback armed while the layer ran
	kindDeliver                 // Receiver.Deliver (node)
	kindSend                    // Transport.Send (radio)
	numKinds
)

var kindNames = [numKinds]string{"start", "handle", "timer", "deliver", "send"}

// spanID indexes the recorder's accumulators.
type spanID uint8

func span(l layer, k spanKind) spanID { return spanID(l)*spanID(numKinds) + spanID(k) }

// spanAcc is one folded span: every closed span of one (layer, kind).
type spanAcc struct {
	calls       int64
	total, self time.Duration
}

// frame is one open span.
type frame struct {
	id        spanID
	start     time.Time
	children  time.Duration
	prevLayer layer
}

// recorder keeps open spans on a stack and folds each span into its
// accumulator as it closes. A run closes tens of millions of spans, so the
// folded table — not the raw spans — is what stays in memory until exit.
type recorder struct {
	acc   [int(numLayers) * int(numKinds)]spanAcc
	stack []frame
	// cur is the stack layer running now: the tag a timer armed at this
	// moment carries.
	cur layer
	// top sums the spans opened with nothing else open: the part of the
	// drain the spans explain.
	top time.Duration
}

func (r *recorder) enter(id spanID, l layer) {
	r.stack = append(r.stack, frame{id: id, start: time.Now(), prevLayer: r.cur})
	r.cur = l
}

func (r *recorder) exit() {
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	d := time.Since(f.start)
	a := &r.acc[f.id]
	a.calls++
	a.total += d
	a.self += d - f.children
	r.cur = f.prevLayer
	if n > 0 {
		r.stack[n-1].children += d
	} else {
		r.top += d
	}
}

// reset discards what set-up recorded, so the table covers the drain only.
func (r *recorder) reset() { *r = recorder{stack: r.stack[:0]} }

// spanRow is one line of the folded span table.
type spanRow struct {
	Layer  string  `json:"layer"`
	Calls  int64   `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share"` // self ÷ drain wall
}

// table folds the accumulators into rows, plus the residual row: drain wall
// minus every top-level span (heap push/pop and radio's receive-side decode).
func (r *recorder) table(drain time.Duration) []spanRow {
	var rows []spanRow
	for l := layer(0); l < numLayers; l++ {
		for k := spanKind(0); k < numKinds; k++ {
			a := r.acc[span(l, k)]
			if a.calls == 0 {
				continue
			}
			rows = append(rows, spanRow{
				Layer: layerNames[l] + "." + kindNames[k], Calls: a.calls,
				TotalS: a.total.Seconds(), SelfS: a.self.Seconds(),
				Share: a.self.Seconds() / drain.Seconds(),
			})
		}
	}
	res := drain - r.top
	return append(rows, spanRow{
		Layer: "sim.residual", TotalS: res.Seconds(), SelfS: res.Seconds(),
		Share: res.Seconds() / drain.Seconds(),
	})
}

// --- wrappers -------------------------------------------------------------

type tracedProtocol struct {
	inner node.Protocol
	rec   *recorder
	l     layer
}

func (p *tracedProtocol) Start(h *node.Host) {
	p.rec.enter(span(p.l, kindStart), p.l)
	p.inner.Start(h)
	p.rec.exit()
}

func (p *tracedProtocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	p.rec.enter(span(p.l, kindHandle), p.l)
	p.inner.Handle(h, m, from)
	p.rec.exit()
}

// tracedMedium times Send and hands the medium a Deliver-timing proxy for
// every attached host; Energy, Neighbors and UpdatePos pass through.
type tracedMedium struct {
	*radio.Medium
	rec *recorder
}

func (t *tracedMedium) Attach(r transport.Receiver) {
	t.Medium.Attach(&tracedReceiver{Receiver: r, rec: t.rec})
}

func (t *tracedMedium) Send(from wire.NodeID, m wire.Message) {
	t.rec.enter(span(layRadio, kindSend), t.rec.cur)
	t.Medium.Send(from, m)
	t.rec.exit()
}

type tracedReceiver struct {
	transport.Receiver
	rec *recorder
}

func (r *tracedReceiver) Deliver(m wire.Message, from wire.NodeID) {
	r.rec.enter(span(layNode, kindDeliver), layNode)
	r.Receiver.Deliver(m, from)
	r.rec.exit()
}

// tracedRuntime is the transport.Runtime hosts bind to. It implements
// ArgClock and BatchClock so pooled timers and same-instant batching work
// exactly as on the bare kernel: every call forwards to the matching kernel
// call, with the callback swapped for one that opens a timer span.
type tracedRuntime struct {
	k    *sim.Kernel
	rec  *recorder
	free []*timerTag
}

// timerTag carries one armed timer's callback and the layer that armed it.
type timerTag struct {
	rt  *tracedRuntime
	l   layer
	fn  sim.Handler
	afn sim.ArgHandler
	arg any
}

var fireTag sim.ArgHandler = func(a any) {
	t := a.(*timerTag)
	rt, l, fn, afn, arg := t.rt, t.l, t.fn, t.afn, t.arg
	t.fn, t.afn, t.arg = nil, nil, nil
	rt.free = append(rt.free, t)
	rt.rec.enter(span(l, kindTimer), l)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	rt.rec.exit()
}

func (rt *tracedRuntime) tag(fn sim.Handler, afn sim.ArgHandler, arg any) *timerTag {
	var t *timerTag
	if n := len(rt.free); n > 0 {
		t, rt.free = rt.free[n-1], rt.free[:n-1]
	} else {
		t = &timerTag{rt: rt}
	}
	t.l, t.fn, t.afn, t.arg = rt.rec.cur, fn, afn, arg
	return t
}

func (rt *tracedRuntime) Now() sim.Time    { return rt.k.Now() }
func (rt *tracedRuntime) Rand() *rand.Rand { return rt.k.Rand() }

func (rt *tracedRuntime) Schedule(d sim.Time, fn sim.Handler) sim.Timer {
	return rt.k.ScheduleArg(d, fireTag, rt.tag(fn, nil, nil))
}

func (rt *tracedRuntime) At(at sim.Time, fn sim.Handler) sim.Timer {
	return rt.k.ScheduleArg(at-rt.k.Now(), fireTag, rt.tag(fn, nil, nil))
}

func (rt *tracedRuntime) ScheduleArg(d sim.Time, fn sim.ArgHandler, arg any) sim.Timer {
	return rt.k.ScheduleArg(d, fireTag, rt.tag(nil, fn, arg))
}

func (rt *tracedRuntime) AtBatched(at sim.Time, fn sim.ArgHandler, arg any) {
	rt.k.AtBatched(at, fireTag, rt.tag(nil, fn, arg))
}

var (
	_ transport.Runtime    = (*tracedRuntime)(nil)
	_ transport.ArgClock   = (*tracedRuntime)(nil)
	_ transport.BatchClock = (*tracedRuntime)(nil)
	_ transport.Transport  = (*tracedMedium)(nil)
)

// --- the replica ----------------------------------------------------------

// tracedWorld is the benchmark-assembled twin of a *scenario.World.
type tracedWorld struct {
	k     *sim.Kernel
	m     *radio.Medium
	rec   *recorder
	order []wire.NodeID
	hosts map[wire.NodeID]*node.Host
	dets  map[wire.NodeID]baseline.Detector
	cls   map[wire.NodeID]*cluster.Protocol
}

// buildTracedWorld mirrors scenario.Build step for step. Build's monitor and
// epoch sampler are left out: both only read state and draw no randomness,
// so their absence shifts no other event.
func buildTracedWorld(w workload, seed int64) *tracedWorld {
	timing := cluster.DefaultTiming()
	k := sim.New(seed)
	reg := metrics.NewRegistry()
	m := radio.New(k, radio.Defaults(lossProb), radio.WithMetrics(reg))
	rec := &recorder{}
	tw := &tracedWorld{
		k: k, m: m, rec: rec,
		hosts: make(map[wire.NodeID]*node.Host),
		dets:  make(map[wire.NodeID]baseline.Detector),
		cls:   make(map[wire.NodeID]*cluster.Protocol),
	}
	rt := &tracedRuntime{k: k, rec: rec}
	tm := &tracedMedium{Medium: m, rec: rec}
	wrap := func(p node.Protocol, l layer) node.Protocol {
		return &tracedProtocol{inner: p, rec: rec, l: l}
	}
	field := geo.NewRect(w.side, w.side)
	for i := 0; i < w.hosts; i++ {
		id := wire.NodeID(i + 1)
		h := node.New(rt, tm, id, geo.UniformInRect(k.Rand(), field))
		switch w.stack {
		case scenario.StackClusterFDS:
			cl := cluster.New(cluster.DefaultConfig())
			fcfg := fds.DefaultConfig(timing)
			fcfg.Metrics = reg
			f := fds.New(fcfg, cl)
			fw := intercluster.New(intercluster.DefaultConfig(timing), cl, f)
			h.Use(wrap(cl, layCluster))
			h.Use(wrap(f, layFDS))
			h.Use(wrap(fw, layInter))
			tw.cls[id] = cl
			tw.dets[id] = f
		default:
			d, err := baseline.New(w.stack.String(), baseline.Params{
				Interval:     timing.Interval,
				SuspectAfter: 4 * timing.Interval,
				TTL:          16,
				RelayJitter:  sim.Time(5 * time.Millisecond),
			})
			if err != nil {
				panic(err)
			}
			h.Use(wrap(d, layBaseline))
			tw.dets[id] = d
		}
		tw.hosts[id] = h
		tw.order = append(tw.order, id)
		h.Boot()
	}
	return tw
}

// crashRandomAt mirrors World.CrashRandomAt on a freshly built world: the
// same shuffle over the same candidate order, the same scheduling order.
func (tw *tracedWorld) crashRandomAt(at sim.Time, count int) []wire.NodeID {
	candidates := append([]wire.NodeID(nil), tw.order...)
	tw.k.Rand().Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if count > len(candidates) {
		count = len(candidates)
	}
	for _, id := range candidates[:count] {
		h := tw.hosts[id]
		tw.k.At(at, func() { h.Crash() })
	}
	return candidates[:count]
}

func (tw *tracedWorld) NodeIDs() []wire.NodeID                    { return tw.order }
func (tw *tracedWorld) Host(id wire.NodeID) *node.Host            { return tw.hosts[id] }
func (tw *tracedWorld) Detector(id wire.NodeID) baseline.Detector { return tw.dets[id] }
func (tw *tracedWorld) MessageCounts() map[string]int64           { return tw.m.Counters() }
func (tw *tracedWorld) TotalEnergySpent() float64                 { return tw.m.TotalEnergySpent() }

func prepareTracedWorld(w workload, o runOpts) prepared {
	tw := buildTracedWorld(w, o.seed)
	timing := cluster.DefaultTiming()
	victims := tw.crashRandomAt(crashInstant(w, timing), w.crashes)
	tw.rec.reset()
	return prepared{
		drain: func() { tw.k.RunUntil(timing.EpochStart(wire.Epoch(w.epochs))) },
		collect: func(r *result) {
			r.Events = tw.k.Steps()
			collectWorld(tw, victims, w, r)
			tw.foldSpans(w, len(victims), r)
		},
	}
}

// foldSpans turns the recorder's accumulators into the span table and the
// per-layer metrics.
func (tw *tracedWorld) foldSpans(w workload, victims int, r *result) {
	drain := time.Duration(r.WallS * float64(time.Second))
	rec := tw.rec
	r.Spans = rec.table(drain)
	residual := drain - rec.top
	r.Layer["sim.residual_s"] = residual.Seconds()
	r.Layer["sim.residual_share"] = residual.Seconds() / drain.Seconds()
	r.Layer["radio.send_calls"] = float64(rec.acc[span(layRadio, kindSend)].calls)
	r.Layer["radio.send_s"] = rec.acc[span(layRadio, kindSend)].self.Seconds()
	r.Layer["node.deliver_calls"] = float64(rec.acc[span(layNode, kindDeliver)].calls)
	r.Layer["node.deliver_self_s"] = rec.acc[span(layNode, kindDeliver)].self.Seconds()
	for _, l := range []layer{layCluster, layFDS, layInter, layBaseline} {
		handle, timer := rec.acc[span(l, kindHandle)], rec.acc[span(l, kindTimer)]
		r.Layer[layerNames[l]+".handle_calls"] = float64(handle.calls)
		r.Layer[layerNames[l]+".handle_s"] = handle.self.Seconds()
		r.Layer[layerNames[l]+".timer_s"] = timer.self.Seconds()
	}
	if w.stack == scenario.StackClusterFDS {
		heads := 0
		for _, id := range tw.order {
			if !tw.hosts[id].Crashed() && tw.cls[id].View().IsCH {
				heads++
			}
		}
		if n := victims * heads; n > 0 {
			r.Layer["intercluster.report_tx_per_failure_per_ch"] =
				r.Layer["radio.tx.failure-report"] / float64(n)
		}
	}
}
