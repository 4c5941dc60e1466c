package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Snapshot is a registry's state as plain data. Snapshots merge (Merge)
// and export (WriteJSON, WriteCSV); both operations are deterministic.
type Snapshot struct {
	Counters   map[string]int64      `json:"counters,omitempty"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string]*Histogram `json:"histograms,omitempty"`
	Series     map[string]*Series    `json:"series,omitempty"`
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
// An instrument s lacks is merged into a new zero one, which copies it: s
// shares no slice with o. Because every rule is associative and applied per
// name, merging a replica sequence in replica order yields a snapshot that
// is a pure function of the replicas — bit-reproducible at any worker count.
func (s *Snapshot) Merge(o Snapshot) {
	s.Counters = sum(s.Counters, o.Counters)
	s.Gauges = sum(s.Gauges, o.Gauges)
	for _, name := range sortedKeys(o.Histograms) {
		entry(&s.Histograms, name).merge(name, o.Histograms[name])
	}
	for _, name := range sortedKeys(o.Series) {
		entry(&s.Series, name).merge(o.Series[name])
	}
}

// sum adds src into dst name by name, making dst when src has a name.
func sum[V int64 | float64](dst, src map[string]V) map[string]V {
	for name, v := range src {
		if dst == nil {
			dst = make(map[string]V, len(src))
		}
		dst[name] += v
	}
	return dst
}

// entry returns the instrument named name in *m, making the map and a zero
// instrument as needed.
func entry[I any](m *map[string]*I, name string) *I {
	if *m == nil {
		*m = make(map[string]*I)
	}
	in := (*m)[name]
	if in == nil {
		in = new(I)
		(*m)[name] = in
	}
	return in
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
