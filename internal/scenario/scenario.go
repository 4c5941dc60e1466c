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
	"clusterfds/internal/par"
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
	// Mobility, when set, attaches random-waypoint movement over the
	// deployment field to every host (any stack).
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

// World is a built scenario ready to run. Its hosts, their detectors and
// crash records are the rows of the embedded par.HostTable, which schedules
// crashes, drawing victims from the kernel's stream, and answers
// completeness, accuracy and the census for both engines.
type World struct {
	par.HostTable

	cfg    Config
	Kernel *sim.Kernel
	Medium *radio.Medium

	aggs    map[wire.NodeID]*aggregate.Protocol
	nextNID wire.NodeID

	// firstSuspected holds, per crashed subject, when each observer first
	// suspected it, indexed by the observer's row; 0 is "not yet".
	firstSuspected map[wire.NodeID][]sim.Time

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
		HostTable:      par.HostTable{Picks: k.Rand()},
		cfg:            cfg,
		Kernel:         k,
		Medium:         m,
		metrics:        reg,
		detLat:         reg.Histogram("detection-latency-s", detectionLatencyBounds),
		aggs:           make(map[wire.NodeID]*aggregate.Protocol),
		nextNID:        wire.NodeID(cfg.Nodes) + 1,
		firstSuspected: make(map[wire.NodeID][]sim.Time),
	}
	field := geo.NewRect(cfg.FieldSide, cfg.FieldSide)
	for id := wire.NodeID(1); id < w.nextNID; id++ {
		w.addHost(id, geo.UniformInRect(k.Rand(), field))
	}
	w.scheduleMonitor()
	w.sampleEpochs()
	return w
}

// addHost creates, equips, and boots one host with a reserved NID.
func (w *World) addHost(id wire.NodeID, pos geo.Point) {
	h := node.New(w.Kernel, w.Medium, id, pos, node.WithTrace(w.cfg.Trace))
	var s intercluster.Stack
	var det baseline.Detector
	switch w.cfg.Stack {
	case StackClusterFDS:
		fcfg := fds.DefaultConfig(w.cfg.Timing)
		fcfg.PeerForwarding = !w.cfg.DisablePeerForwarding
		fcfg.Metrics = w.metrics
		icfg := intercluster.DefaultConfig(w.cfg.Timing)
		icfg.BGWAssist = !w.cfg.DisableBGWAssist
		icfg.ImplicitAcks = !w.cfg.DisableImplicitAcks
		s = intercluster.Install(h, fcfg, icfg)
		if w.cfg.AggregateSampler != nil {
			sampler := w.cfg.AggregateSampler
			ag := aggregate.New(s.Cluster, s.FDS, func(e wire.Epoch) (float64, bool) { return sampler(id, e) })
			h.Use(ag)
			w.aggs[id] = ag
		}
		if w.cfg.Sleep != nil {
			h.Use(sleep.New(*w.cfg.Sleep, s.Cluster))
		}
		det = s.FDS
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
		det = d
	default:
		panic(fmt.Sprintf("scenario: unknown stack %v", w.cfg.Stack))
	}
	if w.cfg.Mobility != nil {
		h.Use(mobility.New(*w.cfg.Mobility, geo.NewRect(w.cfg.FieldSide, w.cfg.FieldSide)))
	}
	w.Attach(h, w.Kernel, det, s)
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
		for _, subject := range w.ScheduledCrashes() {
			crashed, fired := w.CrashedAt(subject)
			if !fired {
				continue
			}
			var stamped int
			w.firstSuspected[subject], stamped = w.StampSuspicions(subject, w.firstSuspected[subject], now)
			for range stamped {
				w.detLat.Observe(time.Duration(now - crashed).Seconds())
			}
		}
		w.Kernel.Schedule(monitorPeriod, tick)
	}
	w.Kernel.Schedule(monitorPeriod, tick)
}

// sampleEpochs ticks at every heartbeat-interval boundary and turns the
// medium's cumulative per-kind counters into per-epoch series: the delta
// accumulated between the boundaries of epoch e is attributed to epoch e.
// Series share the counters' names (tx:<kind>, rx:<kind>); the namespaces
// are distinct, so exports carry both the running total and its epoch
// profile.
func (w *World) sampleEpochs() {
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
// zero: RunEpochs(3) followed by RunEpochs(5) runs five intervals in all,
// as par.Engine.RunEpochs does. It panics on a negative n.
func (w *World) RunEpochs(n int) {
	if n < 0 {
		panic(fmt.Sprintf("scenario: RunEpochs(%d): negative epoch", n))
	}
	w.Run(w.cfg.Timing.EpochStart(wire.Epoch(n)))
}

// DeployAt schedules a replenishment host to appear at pos at the given
// time (Section 2.1: "additional resources will be deployed to replenish
// the system"). It returns the new host's NID, reserved immediately.
func (w *World) DeployAt(at sim.Time, pos geo.Point) wire.NodeID {
	id := w.nextNID
	w.nextNID++
	w.Kernel.At(at, func() { w.addHost(id, pos) })
	return id
}

// --- metrics -------------------------------------------------------------------

// DetectionLatencies returns, for the subject, the per-observer latency
// from the crash instant to the first sample at which the observer
// suspected it (resolution = the monitor period). Observers that never
// noticed are absent, and so is every observer before the crash fires.
func (w *World) DetectionLatencies(subject wire.NodeID) []sim.Time {
	crash, _ := w.CrashedAt(subject)
	obs := w.firstSuspected[subject]
	out := make([]sim.Time, 0, len(obs))
	for _, at := range obs {
		if at != 0 {
			out = append(out, at-crash)
		}
	}
	slices.Sort(out)
	return out
}

// MessageCounts returns the medium's per-kind transmission tallies.
func (w *World) MessageCounts() map[string]int64 { return w.Medium.Counters() }

// TotalEnergySpent returns the fleet's cumulative energy expenditure.
func (w *World) TotalEnergySpent() float64 { return w.Medium.TotalEnergySpent() }

// Aggregate returns the aggregation service on the given host (nil when
// aggregation is not enabled).
func (w *World) Aggregate(id wire.NodeID) *aggregate.Protocol { return w.aggs[id] }

// Config returns the (defaulted) configuration the world was built with.
func (w *World) Config() Config { return w.cfg }
