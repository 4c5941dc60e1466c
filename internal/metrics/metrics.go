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
//     worker count (see Snapshot.Merge for the per-instrument rules). A
//     Histogram and a Series are their own exported records, each with
//     one merge: a snapshot holds copies of the registry's, made by
//     merging them into an empty Snapshot.
//  3. Exports are reproducible byte-for-byte: JSON keys are sorted (the
//     encoding/json map behaviour) and the CSV schema emits sections,
//     names, and bucket/epoch keys in a fixed order.
//
// The registry is not safe for concurrent use; like the simulation kernel
// it assumes single-threaded ownership. Parallel sweeps give each replica
// its own registry and merge the snapshots afterwards.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// maxSeriesEpochs bounds how far a Series may grow. Epochs at or beyond
// the bound are ignored (and counted in the series' Dropped tally) so a
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

// Histogram is a fixed-bucket distribution: Bounds are upper bucket edges
// (inclusive), and observations above the last bound land in the implicit
// +Inf bucket. It is its own exported record: a Snapshot holds copies of the
// registry's histograms. The nil Histogram is a valid no-op instrument.
type Histogram struct {
	// Bounds are the inclusive upper bucket edges.
	Bounds []float64 `json:"bounds"`
	// Buckets holds one count per bound plus a final +Inf bucket.
	Buckets []int64 `json:"buckets"`
	// Count, Sum, Min, Max summarize the raw observations. Min and Max are
	// meaningful only when Count > 0.
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Observe records one observation. Safe on a nil receiver. The bucket scan
// is linear; bound sets are small (≤ ~16) by convention.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.Count == 0 {
		h.Min, h.Max = v, v
	} else {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	h.Count++
	h.Sum += v
	for i, b := range h.Bounds {
		if v <= b {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(h.Bounds)]++
}

// merge folds o, the histogram named name, into h: buckets, count and sum
// add, and min and max combine. Into the zero Histogram it is a deep copy.
// Histograms with different bounds panic: that is a wiring error, not data.
func (h *Histogram) merge(name string, o *Histogram) {
	if h.Buckets == nil {
		h.Bounds = append([]float64(nil), o.Bounds...)
		h.Buckets = make([]int64, len(o.Buckets))
	} else if !slices.Equal(h.Bounds, o.Bounds) {
		panic(fmt.Sprintf("metrics: merging histogram %q with mismatched bounds", name))
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
	switch {
	case h.Count == 0:
		h.Min, h.Max = o.Min, o.Max
	case o.Count > 0:
		h.Min = math.Min(h.Min, o.Min)
		h.Max = math.Max(h.Max, o.Max)
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Series is an epoch-bucketed int64 time series: Epochs[e] accumulates the
// deltas attributed to heartbeat-interval epoch e. Like Histogram it is its
// own exported record. The nil Series is a valid no-op instrument.
type Series struct {
	// Epochs[e] is the tally attributed to heartbeat-interval epoch e.
	Epochs []int64 `json:"epochs"`
	// Dropped tallies deltas recorded beyond the series growth bound.
	Dropped int64 `json:"dropped,omitempty"`
}

// Add accumulates delta into epoch e, growing the series as needed. Safe
// on a nil receiver. Epochs ≥ maxSeriesEpochs are dropped (tallied in
// Dropped) so saturated epoch arithmetic cannot exhaust memory.
func (s *Series) Add(e uint64, delta int64) {
	if s == nil {
		return
	}
	if e >= maxSeriesEpochs {
		s.Dropped += delta
		return
	}
	if need := int(e) + 1; need > len(s.Epochs) {
		if need <= cap(s.Epochs) {
			s.Epochs = s.Epochs[:need]
		} else {
			grown := make([]int64, need, 2*need)
			copy(grown, s.Epochs)
			s.Epochs = grown
		}
	}
	s.Epochs[e] += delta
}

// merge folds o into s element-wise, extending s to the longer vector. Into
// the zero Series it is a deep copy.
func (s *Series) merge(o *Series) {
	if n := len(o.Epochs) - len(s.Epochs); n > 0 {
		s.Epochs = append(s.Epochs, make([]int64, n)...)
	}
	for i, v := range o.Epochs {
		s.Epochs[i] += v
	}
	s.Dropped += o.Dropped
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
		Bounds:  append([]float64(nil), bounds...),
		Buckets: make([]int64, len(bounds)+1),
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
// for merging and export. Its histograms and series are the registry's
// merged into an empty Snapshot, so it shares no slice with the registry.
// Returns the zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters = readings(r.counters, (*Counter).Value)
	s.Gauges = readings(r.gauges, (*Gauge).Value)
	s.Merge(Snapshot{Histograms: r.hists, Series: r.series})
	return s
}

// readings maps each instrument's name to its value, or is nil for none.
func readings[I, V any](m map[string]*I, value func(*I) V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]V, len(m))
	for name, i := range m {
		out[name] = value(i)
	}
	return out
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
