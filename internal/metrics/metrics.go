// Package metrics is the observability layer of the simulator: a
// lightweight, mergeable metrics registry that every subsystem (the radio
// medium, the failure detection service, the scenario harness) writes into.
//
// The paper's completeness and accuracy claims (Sections 4-5) are per-epoch
// quantities, so the registry's distinguishing instrument is the
// epoch-bucketed Series: an int64 vector indexed by heartbeat-interval
// epoch. Counters and gauges cover cumulative tallies, and fixed-bucket
// Histograms cover latency distributions (detection latency,
// update-delivery latency).
//
// Design constraints, in order:
//
//  1. Hot-path writes are allocation-free. Instruments are resolved to
//     handles once, at registration time; Counter.Add and
//     Histogram.Observe are a field increment and a bucket scan — no map
//     lookups, no string concatenation, no interface boxing. A nil handle
//     is a valid no-op instrument, so protocol code can emit
//     unconditionally whether or not a registry is attached.
//  2. Snapshots merge deterministically. Replicated experiments produce
//     one Snapshot per replica; merging them in replica order yields a
//     result that is a pure function of the replica set — never of the
//     worker count (see Snapshot.Merge for the per-instrument rules).
//  3. Exports are reproducible byte-for-byte: JSON keys are sorted (the
//     encoding/json map behaviour) and the CSV schema emits sections,
//     names, and bucket/epoch keys in a fixed order.
//
// The registry is not safe for concurrent use; like the simulation kernel
// it assumes single-threaded ownership. Parallel sweeps give each replica
// its own registry and merge the snapshots afterwards.
package metrics

import "sort"

// maxSeriesEpochs bounds how far a Series may grow. Epochs at or beyond
// the bound are ignored (and counted in the series' dropped tally) so a
// corrupted or saturated epoch number cannot allocate unbounded memory.
const maxSeriesEpochs = 1 << 20

// Counter is a monotonic (or at least sum-semantics) int64 tally.
// The nil Counter is a valid no-op instrument.
type Counter struct {
	v int64
}

// Add adds delta to the counter. Safe on a nil receiver.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v += delta
	}
}

// Value returns the current tally (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-written float64 level. The nil Gauge is a valid no-op
// instrument. Gauges merge by summation (see Snapshot.Merge); replica
// averages are obtained by dividing by the replica count.
type Gauge struct {
	v float64
}

// Set records the gauge's current level. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last written level (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket distribution: bounds are upper bucket edges
// (inclusive), and observations above the last bound land in the implicit
// +Inf bucket. The nil Histogram is a valid no-op instrument.
type Histogram struct {
	bounds  []float64
	buckets []int64 // len(bounds)+1; buckets[len(bounds)] is +Inf
	count   int64
	sum     float64
	min     float64
	max     float64
}

// Observe records one observation. Safe on a nil receiver. The bucket scan
// is linear; bound sets are small (≤ ~16) by convention.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.bounds)]++
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Series is an epoch-bucketed int64 time series: index e accumulates the
// deltas attributed to heartbeat-interval epoch e. The nil Series is a
// valid no-op instrument.
type Series struct {
	v       []int64
	dropped int64 // adds beyond maxSeriesEpochs
}

// Add accumulates delta into epoch e, growing the series as needed. Safe
// on a nil receiver. Epochs ≥ maxSeriesEpochs are dropped (tallied in the
// snapshot's Dropped field) so saturated epoch arithmetic cannot exhaust
// memory.
func (s *Series) Add(e uint64, delta int64) {
	if s == nil {
		return
	}
	if e >= maxSeriesEpochs {
		s.dropped += delta
		return
	}
	if need := int(e) + 1; need > len(s.v) {
		if need <= cap(s.v) {
			s.v = s.v[:need]
		} else {
			grown := make([]int64, need, 2*need)
			copy(grown, s.v)
			s.v = grown
		}
	}
	s.v[e] += delta
}

// Value returns the accumulated delta for epoch e (0 when unrecorded or on
// a nil receiver).
func (s *Series) Value(e uint64) int64 {
	if s == nil || e >= uint64(len(s.v)) {
		return 0
	}
	return s.v[e]
}

// Len returns one past the highest recorded epoch (0 on a nil receiver).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.v)
}

// Total sums the series over all epochs (plus any dropped tail).
func (s *Series) Total() int64 {
	if s == nil {
		return 0
	}
	t := s.dropped
	for _, v := range s.v {
		t += v
	}
	return t
}

// Registry owns a namespace of instruments. The zero value is not usable;
// create one with NewRegistry. A nil *Registry is a valid no-op source:
// every lookup returns a nil handle, and nil handles ignore writes — so
// wiring code can pass an optional registry straight through without
// branching.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (the no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Bounds must be strictly ascending; registering the
// same name twice ignores the second bound set (the first registration
// wins), so independently wired subsystems can share an instrument as long
// as they agree by convention. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Series returns the named epoch series, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Snapshot captures the registry's current state as plain data, suitable
// for merging and export. Returns the zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = HistogramSnapshot{
				Bounds:  append([]float64(nil), h.bounds...),
				Buckets: append([]int64(nil), h.buckets...),
				Count:   h.count,
				Sum:     h.sum,
				Min:     h.min,
				Max:     h.max,
			}
		}
	}
	if len(r.series) > 0 {
		s.Series = make(map[string]SeriesSnapshot, len(r.series))
		for name, sr := range r.series {
			s.Series[name] = SeriesSnapshot{
				Epochs:  append([]int64(nil), sr.v...),
				Dropped: sr.dropped,
			}
		}
	}
	return s
}

// sortedKeys returns the keys of a string-keyed map in ascending order —
// the iteration order every deterministic export uses.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
