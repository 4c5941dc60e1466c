package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// report is the JSON document a suite run writes.
type report struct {
	Host      hostInfo       `json:"host"`
	Seed      int64          `json:"seed"`
	Workloads []*measurement `json:"workloads"`
}

// driverOut is the one JSON object a driver reads from the last stdout line.
type driverOut struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures every selected workload as the plan says, prints every metric
// by name with its unit and writes the span tables and CPU profiles into out.
// The two ways to call the command differ in output only: the suite prints to
// stdout and writes the JSON report into out; for a driver the tables go to
// stderr and stdout carries one JSON object — every universal end-to-end
// metric after an untraced run, every per-layer metric after a traced one.
func run(p *plan, selected []workload, out string, driver bool) int {
	log := io.Writer(os.Stdout)
	if driver {
		log = os.Stderr
	}
	host := readHost()
	host.CalibrationS[0] = calibrate()
	printHeader(log, host, p.seed)
	rep := report{Seed: p.seed}
	ok := true
	for _, w := range selected {
		m := p.measure(w)
		if err := writeSpans(out, m); err != nil {
			m.fail("%v", err)
			m.gate()
		}
		printMeasurement(log, m)
		ok = ok && len(m.Errors) == 0
		rep.Workloads = append(rep.Workloads, m)
	}
	host.CalibrationS[1] = calibrate()
	host.Noisy = noisy(host.CalibrationS)
	rep.Host = host
	fmt.Fprintf(log, "calibration_s after: %.4f%s\n", host.CalibrationS[1], noisyNote(host))

	if driver {
		m := rep.Workloads[0]
		o := driverOut{Correct: ok, Attempted: max(1, m.Attempted), Failed: m.Failed, Metrics: map[string]driverValue{}}
		if p.traced {
			for _, d := range layerMetrics() {
				o.Metrics[d.Name] = driverValue{Value: m.Layer[d.Name], Unit: d.Unit}
			}
		} else {
			for _, d := range endToEnd {
				if d.Universal {
					o.Metrics[d.Name] = driverValue{Value: m.EndToEnd[d.Name].Median, Unit: d.Unit}
				}
			}
		}
		line, err := json.Marshal(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	} else {
		path := filepath.Join(out, "bench.json")
		if err := writeJSON(path, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("report: %s\n", path)
	}
	if !ok {
		fmt.Fprintln(log, "FAILED: determinism or correctness gate (see errors above)")
		return 1
	}
	return 0
}

// noisy reports whether the calibration loop moved by more than 10% between
// the start and the end of a run.
func noisy(c [2]float64) bool {
	return math.Abs(c[0]-c[1])/math.Min(c[0], c[1]) > 0.10
}

func noisyNote(h hostInfo) string {
	if h.Noisy {
		return "  NOISY: calibration moved by more than 10% during the run"
	}
	return ""
}

func printHeader(w io.Writer, h hostInfo, seed int64) {
	fmt.Fprintf(w, "bench: seed %d, cores %d, GOMAXPROCS %d, %s, %s, commit %s\n",
		seed, h.Cores, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "calibration_s before: %.4f\n", h.CalibrationS[0])
}

// printMeasurement prints every metric of one workload by name with its unit.
func printMeasurement(w io.Writer, m *measurement) {
	fmt.Fprintf(w, "\n== %s  seed %d, workers %d, %d untraced reps\n   %s\n",
		m.Workload, m.Seed, m.Workers, len(m.Reps), m.Why)
	if m.EndToEnd != nil {
		fmt.Fprintf(w, "end to end (median of untraced reps; %d required detections, %d failed)\n", m.Attempted, m.Failed)
		for _, d := range endToEnd {
			if s, ok := m.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "  %-44s %14.6g %-6s [q1 %.6g, q3 %.6g, n %d]\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
	if m.Layer != nil {
		fmt.Fprintln(w, "per layer (traced pass; 0 = the workload does not exercise the layer)")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", d.Name, m.Layer[d.Name], d.Unit)
		}
	}
	if len(m.Spans) > 0 {
		fmt.Fprintln(w, "spans (traced drain)")
		fmt.Fprintf(w, "  %-22s %12s %10s %10s %7s\n", "layer", "calls", "total_s", "self_s", "share")
		for _, s := range m.Spans {
			fmt.Fprintf(w, "  %-22s %12d %10.4f %10.4f %6.1f%%\n", s.Layer, s.Calls, s.TotalS, s.SelfS, 100*s.Share)
		}
	}
	for _, e := range m.Errors {
		fmt.Fprintf(w, "ERROR %s: %s\n", m.Workload, e)
	}
}

// writeSpans writes a workload's folded span table as CSV into dir.
func writeSpans(dir string, m *measurement) error {
	if len(m.Spans) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+m.Workload+".csv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "layer,calls,total_s,self_s,share")
	for _, s := range m.Spans {
		fmt.Fprintf(f, "%s,%d,%.6f,%.6f,%.4f\n", s.Layer, s.Calls, s.TotalS, s.SelfS, s.Share)
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkRun runs two full sets of untraced repetitions of the same code and
// prints, per workload and end-to-end metric, both medians, their relative
// difference and PASS/FAIL against checkBound. The repetitions of the two
// sets alternate (1 2 2 1 1 2 ...), so that slow drift of the host over the
// minutes a check takes falls on both sets alike.
func checkRun(p *plan, selected []workload) int {
	host := readHost()
	host.CalibrationS[0] = calibrate()
	printHeader(os.Stdout, host, p.seed)
	var sets [2][]*measurement
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "two sets of %d: %s\n", p.reps, w.name)
		pair := [2]*measurement{p.begin(w), p.begin(w)}
		for i, alive := 0, true; i < p.reps && alive; i++ {
			first := i % 2
			alive = p.rep(w, pair[first]) && p.rep(w, pair[1-first])
		}
		for i, m := range pair {
			p.finish(w, m)
			sets[i] = append(sets[i], m)
		}
	}
	host.CalibrationS[1] = calibrate()
	host.Noisy = noisy(host.CalibrationS)
	fmt.Printf("calibration_s after: %.4f%s\n", host.CalibrationS[1], noisyNote(host))

	ok := true
	for i, w := range selected {
		a, b := sets[0][i], sets[1][i]
		fmt.Printf("\n== %s\n", w.name)
		for _, m := range []*measurement{a, b} {
			for _, e := range m.Errors {
				fmt.Printf("ERROR %s: %s\n", w.name, e)
				ok = false
			}
		}
		for _, d := range endToEnd {
			sa, inA := a.EndToEnd[d.Name]
			sb, inB := b.EndToEnd[d.Name]
			if !inA || !inB {
				continue
			}
			x, y := sa.Median, sb.Median
			worse := y - x
			if d.Better == "higher" {
				worse = x - y
			}
			rel := 0.0
			if x != 0 {
				rel = (y - x) / math.Abs(x)
			}
			bound, floor := checkBound(d.Name, w)
			fail := worse > bound*math.Abs(x) && worse > floor
			if bound == 0 {
				fail = x != y // a simulated statistic repeats exactly
			}
			verdict := "PASS"
			if fail {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("  %-28s %14.6g %14.6g %+8.2f%%  bound %4.0f%%  %s\n", d.Name, x, y, 100*rel, 100*bound, verdict)
		}
	}
	if !ok {
		fmt.Println("\ncheck: FAIL")
		return 1
	}
	fmt.Println("\ncheck: PASS")
	return 0
}
