package scenario

import (
	"bytes"
	"testing"

	"clusterfds/internal/geo"
	"clusterfds/internal/metrics"
	"clusterfds/internal/wire"
)

// TestMetricsSnapshotConsistency cross-checks the epoch sampler against the
// medium's cumulative counters: every per-kind series must sum exactly to
// its counter, the FDS event series must reflect the staged crash, and the
// detection-latency histogram must mirror the monitor's records.
func TestMetricsSnapshotConsistency(t *testing.T) {
	w := Build(Config{Seed: 5, Nodes: 30, FieldSide: 200})
	timing := w.Config().Timing
	w.CrashAt(timing.EpochStart(3)+timing.Interval/2, 7)
	w.RunEpochs(6)
	s := w.MetricsSnapshot()

	for _, kind := range []wire.Kind{wire.KindHeartbeat, wire.KindDigest, wire.KindHealthUpdate} {
		name := "tx:" + kind.String()
		sr, ok := s.Series[name]
		if !ok {
			t.Fatalf("series %q missing", name)
		}
		var total int64
		for _, v := range sr.Epochs {
			total += v
		}
		if total != s.Counters[name] {
			t.Errorf("series %q sums to %d, counter says %d", name, total, s.Counters[name])
		}
		if total == 0 {
			t.Errorf("series %q carries no traffic", name)
		}
	}
	// Heartbeats flow from the very first epoch (formation probe = fds.R-1);
	// digests and updates only start once clusters exist.
	if hb := s.Series["tx:heartbeat"]; len(hb.Epochs) == 0 || hb.Epochs[0] == 0 {
		t.Errorf("no epoch-0 heartbeat traffic: %v", hb.Epochs)
	}

	det, ok := s.Series["detections"]
	if !ok {
		t.Fatal("detections series missing")
	}
	var dets int64
	preCrash := int64(0)
	for e, v := range det.Epochs {
		dets += v
		if e < 4 { // crash mid-epoch 3: no detection can precede epoch 4
			preCrash += v
		}
	}
	if dets == 0 {
		t.Error("crash produced no detection events")
	}
	if preCrash != 0 {
		t.Errorf("detections attributed before the crash epoch: %v", det.Epochs)
	}

	h, ok := s.Histograms["detection-latency-s"]
	if !ok || h.Count == 0 {
		t.Fatal("detection-latency histogram empty")
	}
	if want := int64(len(w.DetectionLatencies(7))); h.Count != want {
		t.Errorf("latency observations = %d, monitor recorded %d", h.Count, want)
	}
	if s.Gauges["operational"] != float64(len(w.Operational())) {
		t.Errorf("operational gauge = %v, want %d", s.Gauges["operational"], len(w.Operational()))
	}
}

// TestStudyMetricsWorkerCountInvariant is the acceptance check for the
// parallel sweep: the merged metrics snapshot must be byte-identical for
// every worker count, because replicas are seeded by index and merged in
// replica order.
func TestStudyMetricsWorkerCountInvariant(t *testing.T) {
	study := Matrix{
		Config:    Config{Seed: 42, Nodes: 25, FieldSide: 200},
		Stacks:    []Stack{StackClusterFDS},
		Scenarios: []ScenarioKind{ScenarioCrashWave},
		Crashes:   1,
		Trials:    6,
		Epochs:    6,
	}
	var snaps []metrics.Snapshot
	var jsons [][]byte
	for _, workers := range []int{1, 4} {
		study.Workers = workers
		sum := study.Run().Cells[0].Summary
		var buf bytes.Buffer
		if err := sum.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, sum.Metrics)
		jsons = append(jsons, buf.Bytes())
	}
	if !snaps[0].Equal(snaps[1]) {
		t.Error("merged snapshots differ between worker counts")
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Error("JSON export differs between worker counts")
	}
	if len(snaps[0].Counters) == 0 || len(snaps[0].Series) == 0 {
		t.Error("merged snapshot suspiciously empty")
	}
}

// TestSummarizeSumsVictimCounts pins what fdsim -trials prints beside
// completeness: the totals of every replica's victims, undetected victims,
// victims admitted at their crash instant (and of those, the undetected),
// false suspicions and failure-report transmissions.
func TestSummarizeSumsVictimCounts(t *testing.T) {
	s := Summarize([]CrashOutcome{
		{Victims: []wire.NodeID{3, 7}, Undetected: 1, Admitted: 2, AdmittedUndetected: 1, FalseSuspicions: 4, ReportTx: 100},
		{Victims: []wire.NodeID{5}, ReportTx: 20},
		{Victims: []wire.NodeID{1, 2, 9}, Undetected: 2, Admitted: 1, FalseSuspicions: 1, ReportTx: 3},
	})
	got := [...]int64{int64(s.Victims), int64(s.Undetected), int64(s.Admitted),
		int64(s.AdmittedUndetected), int64(s.FalseSuspicions), s.ReportTx}
	if want := [...]int64{6, 3, 3, 1, 5, 123}; got != want {
		t.Errorf("victims, undetected, admitted, admitted-undetected, false suspicions, report tx = %v, want %v", got, want)
	}
}

// TestMeasureCrashSplitsVictimsByAdmission: a host that crashes before any
// cluster admits it has no clusterhead to miss it, so it is counted
// undetected and unadmitted; an admitted victim is detected.
func TestMeasureCrashSplitsVictimsByAdmission(t *testing.T) {
	w := Build(Config{Seed: 3, Nodes: 30, FieldSide: 200})
	tm := w.Config().Timing
	deployAt := tm.EpochStart(3) + tm.Interval/4
	late := w.DeployAt(deployAt, geo.Point{X: 100, Y: 100})
	w.Run(deployAt + 1)
	crashAt := tm.EpochStart(3) + tm.Interval/2
	w.CrashAt(crashAt, 1)
	w.CrashAt(crashAt, late)
	w.RunEpochs(8)
	o := measureCrash(w, []wire.NodeID{1, late})
	if !w.AdmittedAtCrash(1) || w.AdmittedAtCrash(late) {
		t.Fatalf("admitted at crash: n1 %v, late n%d %v; want true, false", w.AdmittedAtCrash(1), late, w.AdmittedAtCrash(late))
	}
	if o.Admitted != 1 || o.Undetected != 1 || o.AdmittedUndetected != 0 {
		t.Errorf("admitted %d, undetected %d, admitted-undetected %d; want 1, 1, 0",
			o.Admitted, o.Undetected, o.AdmittedUndetected)
	}
	if want := w.MessageCounts()["tx:failure-report"]; o.ReportTx != want || want == 0 {
		t.Errorf("report tx %d, medium counted %d", o.ReportTx, want)
	}
}
