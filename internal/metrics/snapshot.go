package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// HistogramSnapshot is the exported form of a Histogram.
type HistogramSnapshot struct {
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

// SeriesSnapshot is the exported form of an epoch Series.
type SeriesSnapshot struct {
	// Epochs[e] is the tally attributed to heartbeat-interval epoch e.
	Epochs []int64 `json:"epochs"`
	// Dropped tallies deltas recorded beyond the series growth bound.
	Dropped int64 `json:"dropped,omitempty"`
}

// Snapshot is a registry's state as plain data. Snapshots merge (Merge)
// and export (WriteJSON, WriteCSV); both operations are deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series     map[string]SeriesSnapshot    `json:"series,omitempty"`
}

// Merge folds o into s. Rules, per instrument kind:
//
//   - counters and series add (series element-wise, extending to the longer
//     vector);
//   - gauges add as well — replicated sweeps divide by the replica count
//     for a mean level;
//   - histograms with identical bounds add bucket-wise and combine
//     count/sum/min/max. Merging histograms with different bounds panics:
//     it is a wiring error, not data.
//
// Because every rule is associative and applied per sorted name, merging a
// replica sequence in replica order yields a snapshot that is a pure
// function of the replicas — bit-reproducible at any worker count.
func (s *Snapshot) Merge(o Snapshot) {
	if len(o.Counters) > 0 {
		if s.Counters == nil {
			s.Counters = make(map[string]int64, len(o.Counters))
		}
		for _, name := range sortedKeys(o.Counters) {
			s.Counters[name] += o.Counters[name]
		}
	}
	if len(o.Gauges) > 0 {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(o.Gauges))
		}
		for _, name := range sortedKeys(o.Gauges) {
			s.Gauges[name] += o.Gauges[name]
		}
	}
	if len(o.Histograms) > 0 {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot, len(o.Histograms))
		}
		for _, name := range sortedKeys(o.Histograms) {
			oh := o.Histograms[name]
			h, ok := s.Histograms[name]
			if !ok {
				s.Histograms[name] = HistogramSnapshot{
					Bounds:  append([]float64(nil), oh.Bounds...),
					Buckets: append([]int64(nil), oh.Buckets...),
					Count:   oh.Count,
					Sum:     oh.Sum,
					Min:     oh.Min,
					Max:     oh.Max,
				}
				continue
			}
			if !equalBounds(h.Bounds, oh.Bounds) {
				panic(fmt.Sprintf("metrics: merging histogram %q with mismatched bounds", name))
			}
			for i := range oh.Buckets {
				h.Buckets[i] += oh.Buckets[i]
			}
			switch {
			case h.Count == 0:
				h.Min, h.Max = oh.Min, oh.Max
			case oh.Count > 0:
				h.Min = math.Min(h.Min, oh.Min)
				h.Max = math.Max(h.Max, oh.Max)
			}
			h.Count += oh.Count
			h.Sum += oh.Sum
			s.Histograms[name] = h
		}
	}
	if len(o.Series) > 0 {
		if s.Series == nil {
			s.Series = make(map[string]SeriesSnapshot, len(o.Series))
		}
		for _, name := range sortedKeys(o.Series) {
			os := o.Series[name]
			sr, ok := s.Series[name]
			if !ok {
				s.Series[name] = SeriesSnapshot{
					Epochs:  append([]int64(nil), os.Epochs...),
					Dropped: os.Dropped,
				}
				continue
			}
			if len(os.Epochs) > len(sr.Epochs) {
				grown := make([]int64, len(os.Epochs))
				copy(grown, sr.Epochs)
				sr.Epochs = grown
			}
			for i, v := range os.Epochs {
				sr.Epochs[i] += v
			}
			sr.Dropped += os.Dropped
			s.Series[name] = sr
		}
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two snapshots carry identical data — the
// bit-reproducibility check the worker-count tests use.
func (s Snapshot) Equal(o Snapshot) bool {
	a, errA := json.Marshal(s)
	b, errB := json.Marshal(o)
	return errA == nil && errB == nil && string(a) == string(b)
}

// WriteJSON writes the snapshot as indented JSON. Map keys are emitted in
// sorted order (encoding/json), so equal snapshots produce equal bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as a flat four-column table:
//
//	section,name,key,value
//
// with one row per scalar. Counters and gauges use an empty key;
// histograms emit count/sum/min/max rows followed by one "le:<bound>" row
// per bucket (the final bucket is "le:+Inf"); series emit one "epoch:<e>"
// row per recorded epoch (zeros included — the epoch axis is dense) plus a
// "dropped" row when overflow occurred. Sections appear in the fixed order
// counter, gauge, histogram, series; names sort ascending; keys follow the
// instrument's natural order. Equal snapshots produce equal bytes.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(section, name, key, value string) {
		// csv.Writer sticks the first error; checked at Flush.
		_ = cw.Write([]string{section, name, key, value})
	}
	write("section", "name", "key", "value") // header
	for _, name := range sortedKeys(s.Counters) {
		write("counter", name, "", strconv.FormatInt(s.Counters[name], 10))
	}
	for _, name := range sortedKeys(s.Gauges) {
		write("gauge", name, "", formatFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		write("histogram", name, "count", strconv.FormatInt(h.Count, 10))
		write("histogram", name, "sum", formatFloat(h.Sum))
		write("histogram", name, "min", formatFloat(h.Min))
		write("histogram", name, "max", formatFloat(h.Max))
		for i, b := range h.Bounds {
			write("histogram", name, "le:"+formatFloat(b), strconv.FormatInt(h.Buckets[i], 10))
		}
		if n := len(h.Bounds); n < len(h.Buckets) {
			write("histogram", name, "le:+Inf", strconv.FormatInt(h.Buckets[n], 10))
		}
	}
	for _, name := range sortedKeys(s.Series) {
		sr := s.Series[name]
		for e, v := range sr.Epochs {
			write("series", name, "epoch:"+strconv.Itoa(e), strconv.FormatInt(v, 10))
		}
		if sr.Dropped != 0 {
			write("series", name, "dropped", strconv.FormatInt(sr.Dropped, 10))
		}
	}
	cw.Flush()
	return cw.Error()
}

// Export writes the snapshot as JSON to jsonPath and as CSV to csvPath,
// skipping a format whose path is empty, and logs "metrics (<format>)
// written to <path>" after each file. It stops at the first create, write or
// close error and returns it, naming the format.
func (s Snapshot) Export(log io.Writer, jsonPath, csvPath string) error {
	for _, out := range []struct {
		format, path string
		write        func(io.Writer) error
	}{{"json", jsonPath, s.WriteJSON}, {"csv", csvPath, s.WriteCSV}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err == nil {
			err = out.write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("writing %s metrics: %w", out.format, err)
		}
		fmt.Fprintf(log, "metrics (%s) written to %s\n", out.format, out.path)
	}
	return nil
}

// formatFloat renders floats with the shortest round-trippable
// representation, keeping CSV exports byte-stable.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
