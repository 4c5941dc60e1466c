package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx")
	c.Add(3)
	c.Add(1)
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("tx") != c {
		t.Error("Counter not idempotent")
	}
	g := r.Gauge("level")
	g.Set(2.5)
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %v, want 7 (last write wins)", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter recorded")
	}
	g := r.Gauge("x")
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge recorded")
	}
	r.Histogram("x", []float64{1}).Observe(0.5)
	r.Series("x").Add(3, 1)
	if !r.Snapshot().Equal(Snapshot{}) {
		t.Error("nil registry snapshot not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["lat"]
	want := []int64{2, 1, 1, 1} // le:1 ×2 (0.5 and the inclusive 1), le:2, le:5, +Inf
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, snap.Buckets[i], w, snap.Buckets)
		}
	}
	if snap.Count != 5 || snap.Min != 0.5 || snap.Max != 100 || snap.Sum != 107 {
		t.Errorf("summary wrong: %+v", snap)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []float64{1, 1})
}

func TestSeriesGrowthAndOverflow(t *testing.T) {
	r := NewRegistry()
	s := r.Series("detect")
	s.Add(2, 1)
	s.Add(0, 5)
	s.Add(2, 1)
	if got := r.Snapshot().Series["detect"].Epochs; !slices.Equal(got, []int64{5, 0, 2}) {
		t.Errorf("series = %v, want [5 0 2]", got)
	}
	// A saturated epoch (e.g. from guarded EpochStart arithmetic) must not
	// allocate a gigantic vector.
	s.Add(1<<40, 7)
	snap := r.Snapshot().Series["detect"]
	if !slices.Equal(snap.Epochs, []int64{5, 0, 2}) || snap.Dropped != 7 {
		t.Errorf("after an overflow epoch: series = %v, dropped %d; want [5 0 2], 7", snap.Epochs, snap.Dropped)
	}
}

// TestSnapshotSharesNoSlice pins the copy that Snapshot and Merge promise: a
// snapshot shares no slice with its registry, nor a snapshot with one merged
// into it, so later writes to either side never reach the other.
func TestSnapshotSharesNoSlice(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	s := r.Series("det")
	s.Add(1, 3)
	snap := r.Snapshot()
	var merged Snapshot
	merged.Merge(snap)
	for _, p := range []struct {
		name     string
		from, to Snapshot
	}{{"registry", Snapshot{Histograms: r.hists, Series: r.series}, snap}, {"merge", snap, merged}} {
		for name, h := range p.from.Histograms {
			if to := p.to.Histograms[name]; sameArray(h.Bounds, to.Bounds) || sameArray(h.Buckets, to.Buckets) {
				t.Errorf("%s: histogram %q shares a slice", p.name, name)
			}
		}
		for name, s := range p.from.Series {
			if sameArray(s.Epochs, p.to.Series[name].Epochs) {
				t.Errorf("%s: series %q shares a slice", p.name, name)
			}
		}
	}
	var before bytes.Buffer
	_ = snap.WriteJSON(&before)
	h.Observe(1.5)
	s.Add(1, 1)
	merged.Merge(snap)
	var after bytes.Buffer
	_ = snap.WriteJSON(&after)
	if after.String() != before.String() {
		t.Errorf("snapshot changed under later writes:\n%s\nwas\n%s", after.String(), before.String())
	}
}

// sameArray reports whether two non-empty slices start at the same element.
func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

func buildSnapshot(seed int64) Snapshot {
	r := NewRegistry()
	r.Counter("tx:heartbeat").Add(10 + seed)
	r.Counter("rx:digest").Add(20)
	r.Gauge("operational").Set(float64(40 + seed))
	h := r.Histogram("latency-s", []float64{0.5, 1, 2})
	h.Observe(0.3)
	h.Observe(float64(seed) + 0.6)
	s := r.Series("detections")
	s.Add(1, 2)
	s.Add(uint64(2+seed), 1)
	return r.Snapshot()
}

func TestMergeRules(t *testing.T) {
	a := buildSnapshot(0)
	b := buildSnapshot(3)
	var m Snapshot
	m.Merge(a)
	m.Merge(b)

	if m.Counters["tx:heartbeat"] != 23 {
		t.Errorf("merged counter = %d, want 23", m.Counters["tx:heartbeat"])
	}
	if m.Gauges["operational"] != 83 {
		t.Errorf("merged gauge = %v, want 83 (sum)", m.Gauges["operational"])
	}
	h := m.Histograms["latency-s"]
	if h.Count != 4 || h.Min != 0.3 || h.Max != 3.6 {
		t.Errorf("merged histogram wrong: %+v", h)
	}
	sr := m.Series["detections"]
	if len(sr.Epochs) != 6 || sr.Epochs[1] != 4 || sr.Epochs[2] != 1 || sr.Epochs[5] != 1 {
		t.Errorf("merged series wrong: %v", sr.Epochs)
	}
}

func TestMergeOrderIndependentForCommutativeData(t *testing.T) {
	// The per-instrument rules are associative AND commutative for integer
	// data, so two orders agree here; float sums rely on replica order,
	// which the caller fixes by merging in replica order. This test pins
	// the integer half.
	a := buildSnapshot(0)
	b := buildSnapshot(3)
	var ab, ba, again Snapshot
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)
	again.Merge(a)
	again.Merge(b)
	if ab.Counters["tx:heartbeat"] != ba.Counters["tx:heartbeat"] {
		t.Error("counter merge not commutative")
	}
	if !ab.Equal(again) {
		t.Error("Merge not deterministic for identical input order")
	}
}

func TestMergeMismatchedHistogramBoundsPanics(t *testing.T) {
	r1 := NewRegistry()
	r1.Histogram("h", []float64{1}).Observe(0.5)
	r2 := NewRegistry()
	r2.Histogram("h", []float64{2}).Observe(0.5)
	s := r1.Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("mismatched bounds merged silently")
		}
	}()
	s.Merge(r2.Snapshot())
}

func TestWriteJSONDeterministic(t *testing.T) {
	s := buildSnapshot(1)
	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("JSON export not byte-stable")
	}
	for _, want := range []string{`"tx:heartbeat": 11`, `"counters"`, `"series"`, `"histograms"`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, a.String())
		}
	}
}

func TestWriteCSVSchema(t *testing.T) {
	s := buildSnapshot(0)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "section,name,key,value" {
		t.Errorf("header = %q", lines[0])
	}
	for _, want := range []string{
		"counter,tx:heartbeat,,10",
		"gauge,operational,,40",
		"histogram,latency-s,count,2",
		"histogram,latency-s,le:+Inf,0",
		"series,detections,epoch:0,0", // dense epoch axis: zeros included
		"series,detections,epoch:1,2",
		"series,detections,epoch:2,1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
	var again bytes.Buffer
	_ = s.WriteCSV(&again)
	if again.String() != out {
		t.Error("CSV export not byte-stable")
	}
}

func TestSnapshotEqual(t *testing.T) {
	if !buildSnapshot(2).Equal(buildSnapshot(2)) {
		t.Error("identical snapshots not Equal")
	}
	if buildSnapshot(2).Equal(buildSnapshot(3)) {
		t.Error("different snapshots Equal")
	}
}

// TestExportSkipsAndStops covers Export's two edges: an empty path writes
// and logs nothing for its format, and the first failing file ends the
// export with an error naming its format, after the files before it.
func TestExportSkipsAndStops(t *testing.T) {
	s := buildSnapshot(1)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "m.csv")
	var log bytes.Buffer
	if err := s.Export(&log, "", csvPath); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	_ = s.WriteCSV(&want)
	if got, err := os.ReadFile(csvPath); err != nil || string(got) != want.String() {
		t.Errorf("csv file = %q, %v; want WriteCSV's bytes", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d files written, want only the csv", len(entries))
	}
	if log.String() != "metrics (csv) written to "+csvPath+"\n" {
		t.Errorf("log = %q", log.String())
	}

	jsonPath := filepath.Join(dir, "m.json")
	log.Reset()
	err := s.Export(&log, jsonPath, filepath.Join(dir, "missing", "m.csv"))
	if err == nil || !strings.HasPrefix(err.Error(), "writing csv metrics: ") {
		t.Fatalf("err = %v, want a csv write error", err)
	}
	if _, statErr := os.Stat(jsonPath); statErr != nil {
		t.Errorf("json file before the failure: %v", statErr)
	}
	if log.String() != "metrics (json) written to "+jsonPath+"\n" {
		t.Errorf("log = %q, want only the json line", log.String())
	}
}
