// Package scenario assembles full-system simulations: a random field of
// hosts running one of the detector stacks (the paper's cluster-based FDS or
// any flat competitor from internal/baseline — gossip, flooding, SWIM,
// query-response, all-pairs), a crash and replenishment schedule, and
// uniform metric collection — completeness, detection latency, false
// suspicions, message and energy costs.
//
// The command-line tools, the examples, and the benchmark harness all build
// on this package, so every experiment measures the same way.
package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"clusterfds/internal/aggregate"
	"clusterfds/internal/baseline"
	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/metrics"
	"clusterfds/internal/mobility"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/sleep"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// Stack selects the detector stack a world runs.
type Stack int

// Available stacks.
const (
	// StackClusterFDS is the paper's system: cluster formation, the
	// three-round FDS, and inter-cluster failure-report forwarding.
	StackClusterFDS Stack = iota + 1
	// StackGossip is the gossip-style baseline (van Renesse et al.).
	StackGossip
	// StackFlood is the flat-flooding heartbeat baseline.
	StackFlood
	// StackSWIM is the SWIM-style ping/indirect-ping detector.
	StackSWIM
	// StackQueryResponse is the Sens et al. query-response detector.
	StackQueryResponse
	// StackAllPairs is the all-pairs heartbeat strawman.
	StackAllPairs
)

// String implements fmt.Stringer.
func (s Stack) String() string {
	switch s {
	case StackClusterFDS:
		return "cluster-fds"
	case StackGossip:
		return "gossip"
	case StackFlood:
		return "flood"
	case StackSWIM:
		return "swim"
	case StackQueryResponse:
		return "query-response"
	case StackAllPairs:
		return "all-pairs"
	default:
		return fmt.Sprintf("stack(%d)", int(s))
	}
}

// Stacks returns every available stack in declaration order.
func Stacks() []Stack {
	return []Stack{
		StackClusterFDS, StackGossip, StackFlood,
		StackSWIM, StackQueryResponse, StackAllPairs,
	}
}

// ParseStack resolves a stack by its String name.
func ParseStack(name string) (Stack, error) {
	for _, s := range Stacks() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown detector stack %q", name)
}

// Config describes a scenario.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Nodes is the initial population.
	Nodes int
	// FieldSide is the deployment square's edge length in meters.
	FieldSide float64
	// LossProb is the medium's per-receiver loss probability p.
	LossProb float64
	// Stack selects the detector.
	Stack Stack
	// Timing is the cluster/FDS schedule (cluster stack only); zero means
	// cluster.DefaultTiming().
	Timing cluster.Timing
	// PeerForwarding, BGWAssist, ImplicitAcks gate the robustness
	// mechanisms for ablation studies; Build turns all three on unless
	// DisablePeerForwarding etc. are set.
	DisablePeerForwarding bool
	DisableBGWAssist      bool
	DisableImplicitAcks   bool
	// Trace receives structured events; nil means discard.
	Trace trace.Sink
	// AggregateSampler, when set, attaches the in-network aggregation
	// service (cluster stack only) with the given per-host sensor model.
	AggregateSampler func(wire.NodeID, wire.Epoch) (float64, bool)
	// Sleep, when set, attaches the duty-cycling policy (cluster stack
	// only).
	Sleep *sleep.Config
	// Mobility, when set, attaches random-waypoint movement to every host
	// (any stack). A zero Field is defaulted to the deployment field.
	Mobility *mobility.Config
}

const (
	// floodTTL bounds flood relaying.
	floodTTL = 16
	// monitorPeriod is how often detection latency is sampled.
	monitorPeriod = sim.Time(500 * time.Millisecond)
)

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.FieldSide <= 0 {
		c.FieldSide = 500
	}
	if c.Stack == 0 {
		c.Stack = StackClusterFDS
	}
	if !c.Timing.Valid() {
		c.Timing = cluster.DefaultTiming()
	}
	if c.Trace == nil {
		c.Trace = trace.Nop{}
	}
	return c
}

// World is a built scenario ready to run.
type World struct {
	cfg    Config
	Kernel *sim.Kernel
	Medium *radio.Medium

	hosts   map[wire.NodeID]*node.Host
	order   []wire.NodeID // insertion order, for deterministic iteration
	dets    map[wire.NodeID]baseline.Detector
	cls     map[wire.NodeID]*cluster.Protocol
	fdss    map[wire.NodeID]*fds.Protocol
	fwds    map[wire.NodeID]*intercluster.Protocol
	aggs    map[wire.NodeID]*aggregate.Protocol
	nextNID wire.NodeID

	crashSched map[wire.NodeID]bool     // hosts with a crash scheduled, fired or not
	crashOrder []wire.NodeID            // the same hosts, in the order they were scheduled
	crashedAt  map[wire.NodeID]sim.Time // when each crash fired
	admitted   map[wire.NodeID]bool     // crashed while admitted to a cluster (Marked)
	// firstSuspected holds, per subject in crashOrder, when each observer
	// first suspected it, indexed by the observer's position in order; 0 is
	// "not yet".
	firstSuspected [][]sim.Time

	// metrics is the world's registry, shared with the medium (per-kind
	// counters) and every FDS instance (per-epoch event series). The
	// epoch sampler turns the medium's cumulative per-kind counters into
	// per-epoch tx:/rx: series; detLat collects detection latencies.
	metrics        *metrics.Registry
	txSeries       [int(wire.KindEnd)]*metrics.Series
	rxSeries       [int(wire.KindEnd)]*metrics.Series
	prevTx, prevRx [int(wire.KindEnd)]int64
	detLat         *metrics.Histogram
}

// detectionLatencyBounds are the upper bucket edges, in seconds, of the
// detection-latency histogram. With φ = 10 s, in-cluster detection lands
// within one to two intervals; dissemination tails stretch further.
var detectionLatencyBounds = []float64{0.5, 1, 2, 5, 10, 15, 20, 30, 60}

// Build constructs the world: hosts placed uniformly at random over the
// field, all booted at time zero.
func Build(cfg Config) *World {
	cfg = cfg.withDefaults()
	k := sim.New(cfg.Seed)
	reg := metrics.NewRegistry()
	m := radio.New(k, radio.Defaults(cfg.LossProb), radio.WithTrace(cfg.Trace), radio.WithMetrics(reg))
	w := &World{
		cfg:        cfg,
		Kernel:     k,
		Medium:     m,
		metrics:    reg,
		detLat:     reg.Histogram("detection-latency-s", detectionLatencyBounds),
		hosts:      make(map[wire.NodeID]*node.Host),
		dets:       make(map[wire.NodeID]baseline.Detector),
		cls:        make(map[wire.NodeID]*cluster.Protocol),
		fdss:       make(map[wire.NodeID]*fds.Protocol),
		fwds:       make(map[wire.NodeID]*intercluster.Protocol),
		aggs:       make(map[wire.NodeID]*aggregate.Protocol),
		nextNID:    1,
		crashSched: make(map[wire.NodeID]bool),
		crashedAt:  make(map[wire.NodeID]sim.Time),
		admitted:   make(map[wire.NodeID]bool),
	}
	field := geo.NewRect(cfg.FieldSide, cfg.FieldSide)
	for i := 0; i < cfg.Nodes; i++ {
		w.addHost(geo.UniformInRect(k.Rand(), field))
	}
	w.scheduleMonitor()
	w.scheduleEpochSampler()
	return w
}

// addHost creates, equips, and boots one host at pos.
func (w *World) addHost(pos geo.Point) wire.NodeID {
	id := w.nextNID
	w.nextNID++
	w.addHostWithID(id, pos)
	return id
}

// addHostWithID creates, equips, and boots one host with a pre-reserved NID.
func (w *World) addHostWithID(id wire.NodeID, pos geo.Point) {
	h := node.New(w.Kernel, w.Medium, id, pos, node.WithTrace(w.cfg.Trace))
	switch w.cfg.Stack {
	case StackClusterFDS:
		cl := cluster.New(cluster.Config{Timing: w.cfg.Timing})
		fcfg := fds.DefaultConfig(w.cfg.Timing)
		fcfg.PeerForwarding = !w.cfg.DisablePeerForwarding
		fcfg.Metrics = w.metrics
		f := fds.New(fcfg, cl)
		icfg := intercluster.DefaultConfig(w.cfg.Timing)
		icfg.BGWAssist = !w.cfg.DisableBGWAssist
		icfg.ImplicitAcks = !w.cfg.DisableImplicitAcks
		fw := intercluster.New(icfg, cl, f)
		h.Use(cl)
		h.Use(f)
		h.Use(fw)
		if w.cfg.AggregateSampler != nil {
			sampler := w.cfg.AggregateSampler
			ag := aggregate.New(cl, f, func(e wire.Epoch) (float64, bool) { return sampler(id, e) })
			h.Use(ag)
			w.aggs[id] = ag
		}
		if w.cfg.Sleep != nil {
			h.Use(sleep.New(*w.cfg.Sleep, cl))
		}
		w.cls[id] = cl
		w.fdss[id] = f
		w.fwds[id] = fw
		w.dets[id] = f
	case StackGossip, StackFlood, StackSWIM, StackQueryResponse, StackAllPairs:
		// All flat detectors come from the baseline registry, configured
		// from the same period and suspicion timeout for a fair comparison:
		// the cluster timing's heartbeat interval.
		d, err := baseline.New(w.cfg.Stack.String(), baseline.Params{
			Interval:     w.cfg.Timing.Interval,
			SuspectAfter: 4 * w.cfg.Timing.Interval,
			TTL:          floodTTL,
			RelayJitter:  sim.Time(5 * time.Millisecond),
		})
		if err != nil {
			panic(err)
		}
		h.Use(d)
		w.dets[id] = d
	default:
		panic(fmt.Sprintf("scenario: unknown stack %v", w.cfg.Stack))
	}
	if w.cfg.Mobility != nil {
		mcfg := *w.cfg.Mobility
		if mcfg.Field.Area() <= 0 {
			mcfg.Field = geo.NewRect(w.cfg.FieldSide, w.cfg.FieldSide)
		}
		h.Use(mobility.New(mcfg))
	}
	w.hosts[id] = h
	w.order = append(w.order, id)
	h.Boot()
}

// scheduleMonitor samples, at the monitor period, which observers have
// begun suspecting each crashed subject — a stack-agnostic way to measure
// detection and dissemination latency.
func (w *World) scheduleMonitor() {
	var tick func()
	tick = func() {
		now := w.Kernel.Now()
		// Schedule order, not map order: Observe folds a float sum.
		for i, subject := range w.crashOrder {
			crashed, fired := w.crashedAt[subject]
			if !fired {
				continue
			}
			// Hosts deployed since the last tick extend the subject's row.
			obs := w.firstSuspected[i]
			if n := len(w.order) - len(obs); n > 0 {
				obs = append(obs, make([]sim.Time, n)...)
				w.firstSuspected[i] = obs
			}
			for j, id := range w.order {
				if id == subject || obs[j] != 0 || w.hosts[id].Crashed() {
					continue
				}
				if w.dets[id].IsSuspected(subject) {
					obs[j] = now
					w.detLat.Observe(time.Duration(now - crashed).Seconds())
				}
			}
		}
		w.Kernel.Schedule(monitorPeriod, tick)
	}
	w.Kernel.Schedule(monitorPeriod, tick)
}

// scheduleEpochSampler ticks at every heartbeat-interval boundary and turns
// the medium's cumulative per-kind counters into per-epoch series: the delta
// accumulated between the boundaries of epoch e is attributed to epoch e.
// Series share the counters' names (tx:<kind>, rx:<kind>); the namespaces
// are distinct, so exports carry both the running total and its epoch
// profile.
func (w *World) scheduleEpochSampler() {
	var tick func()
	tick = func() {
		if e := w.cfg.Timing.EpochOf(w.Kernel.Now()); e > 0 {
			w.flushEpochDeltas(uint64(e) - 1)
		}
		w.Kernel.Schedule(w.cfg.Timing.Interval, tick)
	}
	w.Kernel.Schedule(w.cfg.Timing.Interval, tick)
}

// flushEpochDeltas attributes per-kind counter growth since the previous
// flush to epoch e. Idempotent between counter changes; handles are
// resolved lazily so only kinds that actually flowed appear in snapshots.
func (w *World) flushEpochDeltas(e uint64) {
	for k := wire.Kind(1); k < wire.KindEnd; k++ {
		if tx := w.Medium.Sent(k); tx != w.prevTx[k] {
			if w.txSeries[k] == nil {
				w.txSeries[k] = w.metrics.Series("tx:" + k.String())
			}
			w.txSeries[k].Add(e, tx-w.prevTx[k])
			w.prevTx[k] = tx
		}
		if rx := w.Medium.Received(k); rx != w.prevRx[k] {
			if w.rxSeries[k] == nil {
				w.rxSeries[k] = w.metrics.Series("rx:" + k.String())
			}
			w.rxSeries[k].Add(e, rx-w.prevRx[k])
			w.prevRx[k] = rx
		}
	}
}

// Metrics returns the world's registry (shared by the medium and every FDS
// instance). Single-threaded like the kernel; snapshot before crossing
// goroutines.
func (w *World) Metrics() *metrics.Registry { return w.metrics }

// MetricsSnapshot flushes the in-progress epoch's per-kind deltas, records
// the summary gauges (operational host count, fleet energy spent), and
// returns the registry's state as plain mergeable data.
func (w *World) MetricsSnapshot() metrics.Snapshot {
	w.flushEpochDeltas(uint64(w.cfg.Timing.EpochOf(w.Kernel.Now())))
	w.metrics.Gauge("operational").Set(float64(len(w.Operational())))
	w.metrics.Gauge("energy-spent").Set(w.TotalEnergySpent())
	return w.metrics.Snapshot()
}

// Run advances the world to the given absolute virtual time.
func (w *World) Run(until sim.Time) { w.Kernel.RunUntil(until) }

// RunEpochs advances the world TO the start of epoch n, counted from time
// zero: RunEpochs(3) followed by RunEpochs(5) runs five intervals in all.
// (par.Engine.RunEpochs counts the other way, n MORE intervals.) It panics
// on a negative n.
func (w *World) RunEpochs(n int) {
	if n < 0 {
		panic(fmt.Sprintf("scenario: RunEpochs(%d): negative epoch", n))
	}
	w.Run(w.cfg.Timing.EpochStart(wire.Epoch(n)))
}

// CrashAt schedules a fail-stop crash of id at the given absolute time.
func (w *World) CrashAt(at sim.Time, id wire.NodeID) {
	h, ok := w.hosts[id]
	if !ok {
		panic(fmt.Sprintf("scenario: no host %v", id))
	}
	if !w.crashSched[id] {
		w.crashSched[id] = true
		w.crashOrder = append(w.crashOrder, id)
		w.firstSuspected = append(w.firstSuspected, nil)
	}
	w.Kernel.At(at, func() {
		if !h.Crashed() {
			if cl := w.cls[id]; cl != nil && cl.Marked() {
				w.admitted[id] = true
			}
			h.Crash()
			w.crashedAt[id] = w.Kernel.Now()
		}
	})
}

// CrashRandomAt schedules count crashes at the given time, of distinct
// hosts that are alive and have no crash scheduled yet, chosen
// deterministically from the seed. Scheduled hosts are passed over after
// the shuffle, not left out of it, so the shuffle spends the same draws
// whether or not earlier waves are still pending.
func (w *World) CrashRandomAt(at sim.Time, count int) []wire.NodeID {
	candidates := make([]wire.NodeID, 0, len(w.order))
	for _, id := range w.order {
		if !w.hosts[id].Crashed() {
			candidates = append(candidates, id)
		}
	}
	w.Kernel.Rand().Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	picked := candidates[:0] // filtered in place: writes trail reads
	for _, id := range candidates {
		if len(picked) < count && !w.crashSched[id] {
			picked = append(picked, id)
			w.CrashAt(at, id)
		}
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return picked
}

// DeployAt schedules a replenishment host to appear at pos at the given
// time (Section 2.1: "additional resources will be deployed to replenish
// the system"). It returns the new host's NID, reserved immediately.
func (w *World) DeployAt(at sim.Time, pos geo.Point) wire.NodeID {
	id := w.nextNID
	w.nextNID++
	w.Kernel.At(at, func() { w.addHostWithID(id, pos) })
	return id
}

// --- metrics -------------------------------------------------------------------

// AdmittedAtCrash reports whether id's crash has fired while it was admitted
// to a cluster (Marked). A host that was still unmarked has no clusterhead
// to miss its heartbeat, so no rule can detect it; flat stacks admit nobody.
func (w *World) AdmittedAtCrash(id wire.NodeID) bool { return w.admitted[id] }

// Operational returns the NIDs of hosts that are alive right now, sorted.
func (w *World) Operational() []wire.NodeID {
	var out []wire.NodeID
	for _, id := range w.order {
		if !w.hosts[id].Crashed() {
			out = append(out, id)
		}
	}
	return out
}

// Completeness returns, for the given crashed subject, how many operational
// hosts currently suspect it and how many operational hosts there are.
func (w *World) Completeness(subject wire.NodeID) (aware, operational int) {
	for _, id := range w.order {
		if id == subject || w.hosts[id].Crashed() {
			continue
		}
		operational++
		if w.dets[id].IsSuspected(subject) {
			aware++
		}
	}
	return aware, operational
}

// FalseSuspicions returns every (observer, subject) pair where an
// operational observer currently suspects an operational subject — the
// accuracy property's violations.
func (w *World) FalseSuspicions() [][2]wire.NodeID {
	var out [][2]wire.NodeID
	for _, obs := range w.order {
		if w.hosts[obs].Crashed() {
			continue
		}
		for _, subject := range w.dets[obs].KnownFailed() {
			if h, ok := w.hosts[subject]; ok && !h.Crashed() {
				out = append(out, [2]wire.NodeID{obs, subject})
			}
		}
	}
	return out
}

// DetectionLatencies returns, for the subject, the per-observer latency
// from the crash instant to the first sample at which the observer
// suspected it (resolution = the monitor period). Observers that never
// noticed are absent.
func (w *World) DetectionLatencies(subject wire.NodeID) []sim.Time {
	crash, crashed := w.crashedAt[subject]
	if !crashed {
		return nil
	}
	var obs []sim.Time
	if i := slices.Index(w.crashOrder, subject); i >= 0 {
		obs = w.firstSuspected[i]
	}
	out := make([]sim.Time, 0, len(obs))
	for _, at := range obs {
		if at != 0 {
			out = append(out, at-crash)
		}
	}
	slices.Sort(out)
	return out
}

// ClusterCensus summarizes the cluster structure (cluster stack only):
// the number of clusterheads, admitted members, gateways, and unmarked
// hosts among operational hosts.
type ClusterCensus struct {
	Clusterheads int
	Members      int
	Gateways     int
	Unmarked     int
}

// Census computes the current cluster census. It panics for baseline
// stacks, which have no cluster structure.
func (w *World) Census() ClusterCensus {
	if w.cfg.Stack != StackClusterFDS {
		panic("scenario: census requires the cluster stack")
	}
	var c ClusterCensus
	for _, id := range w.order {
		if w.hosts[id].Crashed() {
			continue
		}
		cl := w.cls[id]
		switch {
		case !cl.Marked():
			c.Unmarked++
		case cl.IsCH():
			c.Clusterheads++
		default:
			c.Members++
			if cl.IsGW() {
				c.Gateways++
			}
		}
	}
	return c
}

// MessageCounts returns the medium's per-kind transmission tallies.
func (w *World) MessageCounts() map[string]int64 { return w.Medium.Counters() }

// TotalEnergySpent returns the fleet's cumulative energy expenditure.
func (w *World) TotalEnergySpent() float64 { return w.Medium.TotalEnergySpent() }

// Host returns the host with the given NID (nil if unknown).
func (w *World) Host(id wire.NodeID) *node.Host { return w.hosts[id] }

// Detector returns the detector running on the given host.
func (w *World) Detector(id wire.NodeID) baseline.Detector { return w.dets[id] }

// FDS returns the cluster-based FDS on the given host (nil for baselines).
func (w *World) FDS(id wire.NodeID) *fds.Protocol { return w.fdss[id] }

// Forwarder returns the inter-cluster forwarder of a host (nil for flat
// stacks).
func (w *World) Forwarder(id wire.NodeID) *intercluster.Protocol { return w.fwds[id] }

// Cluster returns the cluster protocol on the given host (nil for
// baselines).
func (w *World) Cluster(id wire.NodeID) *cluster.Protocol { return w.cls[id] }

// Aggregate returns the aggregation service on the given host (nil when
// aggregation is not enabled).
func (w *World) Aggregate(id wire.NodeID) *aggregate.Protocol { return w.aggs[id] }

// Config returns the (defaulted) configuration the world was built with.
func (w *World) Config() Config { return w.cfg }

// NodeIDs returns all host NIDs in insertion order.
func (w *World) NodeIDs() []wire.NodeID { return append([]wire.NodeID(nil), w.order...) }
