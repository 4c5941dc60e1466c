// Command fdsfigs regenerates the paper's evaluation artifacts:
//
//	Figure 5:  P̂(False detection) vs message-loss probability p
//	Figure 6:  P(False detection on CH) vs p
//	Figure 7:  P̂(Incompleteness) vs p
//	Ext. A:    DCH reachability study (described in §4.2, omitted by the
//	           paper for space)
//	Ext. B:    Monte-Carlo cross-validation of the formulas against the
//	           protocol implementation where rates are measurable
//	Ext. C/H:  predicted message cost per interval vs population, for the
//	           cluster FDS, flat flooding, and gossip
//	Ext. I:    head-to-head detector matrix — every pluggable failure
//	           detector (cluster FDS, flood, gossip, SWIM, query-response,
//	           all-pairs) under crash-wave, partition, duty-sleep, and
//	           mobility on identical seeds
//
// Each figure is printed as a TSV table (one row per p, one column per
// cluster population) and, unless -format=tsv, as an ASCII log-scale chart
// mirroring the published plots.
//
// Usage:
//
//	fdsfigs [-fig all|5|6|7|A|B|C|I] [-format both|tsv|plot] [-trials N] [-seed S]
//	        [-workers N] [-metrics out.json] [-metrics-csv out.csv]
//	        [-detectors a,b,...] [-matrix-trials N]
//
// The Monte-Carlo figures (A, B and I) run their replicas on the parallel
// replication engine; -workers sizes the pool (default GOMAXPROCS, 1 =
// serial). Output is bit-identical at every worker count. -trials,
// -matrix-trials and -workers below 1 exit 2 before any figure runs.
//
// -detectors filters the Ext. I matrix to a comma-separated subset of
// detector names (default: all of them); -matrix-trials sets its per-cell
// trial count. The table ends with a "matrix hash:" line — an FNV-64a digest
// of the TSV that CI compares across worker counts.
//
// -metrics / -metrics-csv attach per-trial registries to the Ext. B
// validation runs and export the snapshots — merged in case order, then
// measure order, then trial order — as deterministic JSON/CSV (schema in
// EXPERIMENTS.md). The flags only take effect when figure B runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"clusterfds/internal/analysis"
	"clusterfds/internal/metrics"
	"clusterfds/internal/montecarlo"
	"clusterfds/internal/scenario"
	"clusterfds/internal/textplot"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 5, 6, 7, A, B, C, I")
	format := flag.String("format", "both", "output format: both, tsv, plot")
	trials := flag.Int("trials", 2000, "Monte-Carlo trials per point (Ext. B)")
	seed := flag.Int64("seed", 1, "random seed for the Monte-Carlo figures")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker pool for the Monte-Carlo figures (results identical at any count)")
	metricsJSON := flag.String("metrics", "", "write Ext. B's merged metrics snapshot as JSON to this file")
	metricsCSV := flag.String("metrics-csv", "", "write Ext. B's merged metrics snapshot as CSV to this file")
	detectors := flag.String("detectors", "",
		"comma-separated detector filter for the Ext. I matrix (default: all detectors)")
	matrixTrials := flag.Int("matrix-trials", 5, "trials per Ext. I matrix cell")
	flag.Parse()
	if err := checkCounts(*trials, *matrixTrials, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "fdsfigs: %v\n", err)
		os.Exit(2)
	}

	wantTSV := *format == "both" || *format == "tsv"
	wantPlot := *format == "both" || *format == "plot"
	if !wantTSV && !wantPlot {
		fmt.Fprintf(os.Stderr, "fdsfigs: unknown format %q\n", *format)
		os.Exit(2)
	}

	figures := strings.Split(*fig, ",")
	if *fig == "all" {
		figures = []string{"5", "6", "7", "A", "B", "C", "I"}
	}
	for _, f := range figures {
		switch strings.TrimSpace(f) {
		case "5":
			analyticFigure(analysis.MeasureFalseDetection, "Figure 5", wantTSV, wantPlot)
		case "6":
			analyticFigure(analysis.MeasureFalseDetectionOnCH, "Figure 6", wantTSV, wantPlot)
		case "7":
			analyticFigure(analysis.MeasureIncompleteness, "Figure 7", wantTSV, wantPlot)
		case "A":
			dchReachability(*seed, *workers, wantTSV, wantPlot)
		case "B":
			mcValidation(*seed, *trials, *workers, *metricsJSON, *metricsCSV)
		case "C":
			costCurves(wantTSV, wantPlot)
		case "I":
			headToHead(*seed, *matrixTrials, *workers, *detectors)
		default:
			fmt.Fprintf(os.Stderr, "fdsfigs: unknown figure %q\n", f)
			os.Exit(2)
		}
	}
}

// checkCounts refuses a trial or worker count below one before any figure
// runs: a study of no trials would print an empty estimate as if it were
// consistent, and a figure that read 0 as its default would report a trial
// count it did not run.
func checkCounts(trials, matrixTrials, workers int) error {
	if trials < 1 || matrixTrials < 1 || workers < 1 {
		return fmt.Errorf("-trials %d -matrix-trials %d -workers %d: each must be at least 1", trials, matrixTrials, workers)
	}
	return nil
}

// analyticFigure prints one of the paper's three results figures.
func analyticFigure(m analysis.Measure, title string, wantTSV, wantPlot bool) {
	ps := analysis.DefaultLossSweep()
	pops := analysis.PaperPopulations()

	if wantTSV {
		fmt.Printf("# %s: %s (R = 100 m, members uniform, worst-case subject)\n", title, m)
		fmt.Print("p")
		for _, n := range pops {
			fmt.Printf("\tN=%d", n)
		}
		fmt.Println()
		for _, p := range ps {
			fmt.Printf("%.2f", p)
			for _, n := range pops {
				fmt.Printf("\t%.6e", m.Eval(n, p))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if wantPlot {
		chart := textplot.Chart{
			Title:  fmt.Sprintf("%s: %s", title, m),
			XLabel: "probability of message loss (p)",
			LogY:   true,
			YFloor: 1e-30,
		}
		for _, n := range pops {
			s := textplot.Series{Name: fmt.Sprintf("N=%d", n)}
			for _, pt := range analysis.Series(m, n, ps) {
				s.X = append(s.X, pt.P)
				s.Y = append(s.Y, pt.Value)
			}
			chart.Series = append(chart.Series, s)
		}
		fmt.Println(chart.Render())
	}
}

// dchReachability prints the Ext. A study: the probability that a member
// out of the deputy's range is still observed through digests, against the
// CH-DCH distance.
func dchReachability(seed int64, workers int, wantTSV, wantPlot bool) {
	ds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	pops := analysis.PaperPopulations()
	const p = 0.1

	results := make(map[int][]analysis.Result, len(pops))
	for _, n := range pops {
		c := analysis.DCHReach{R: 100, N: n, P: p}
		// Per-population seed offset keeps the populations' random streams
		// independent; each sweep parallelizes over the distances.
		results[n] = c.SweepParallel(seed+int64(n), ds, 400, workers)
	}

	if wantTSV {
		fmt.Printf("# Ext. A: DCH reachability (R = 100 m, p = %.2f)\n", p)
		fmt.Print("d\toutOfRange")
		for _, n := range pops {
			fmt.Printf("\tP(unobserved) N=%d", n)
		}
		fmt.Println()
		for i, d := range ds {
			fmt.Printf("%.0f\t%.4f", d, results[pops[0]][i].OutOfRange)
			for _, n := range pops {
				fmt.Printf("\t%.6e", results[n][i].Unobserved)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if wantPlot {
		chart := textplot.Chart{
			Title:  "Ext. A: P(member out of DCH range AND unobserved) vs CH-DCH distance",
			XLabel: "CH-DCH distance d (m)",
			LogY:   true,
			YFloor: 1e-12,
		}
		for _, n := range pops {
			s := textplot.Series{Name: fmt.Sprintf("N=%d", n)}
			for i, d := range ds {
				s.X = append(s.X, d)
				s.Y = append(s.Y, results[n][i].Unobserved)
			}
			chart.Series = append(chart.Series, s)
		}
		fmt.Println(chart.Render())
	}
}

// costCurves prints the Ext. C/H cost curves: predicted transmissions per
// heartbeat interval for the cluster-based FDS versus flat flooding, as the
// population grows — the quantitative form of the paper's Section 3
// scalability argument.
func costCurves(wantTSV, wantPlot bool) {
	ns := []int{50, 100, 200, 400, 800, 1600}
	const p = 0.1
	// Empirical structural densities from the simulator (clusters and
	// gateway candidates per node on uniform fields at R = 100 m).
	const clustersPerNode, gatewaysPerNode = 0.11, 0.55

	cluster := func(n int) float64 {
		c := analysis.ClusterCost{
			Nodes:    n,
			Clusters: int(clustersPerNode * float64(n)),
			Gateways: int(gatewaysPerNode * float64(n)),
			LossProb: p,
		}
		return c.PerEpoch().Total()
	}

	if wantTSV {
		fmt.Printf("# Ext. C/H: predicted transmissions per interval (p = %.2f)\n", p)
		fmt.Println("n\tcluster-fds\tflooding\tgossip-msgs\tadvantage")
		for _, n := range ns {
			cl := cluster(n)
			fl := analysis.FloodingPerInterval(n, p)
			fmt.Printf("%d\t%.0f\t%.0f\t%.0f\t%.1fx\n", n, cl, fl, analysis.GossipPerInterval(n), fl/cl)
		}
		fmt.Println()
	}
	if wantPlot {
		chart := textplot.Chart{
			Title:  "Ext. C/H: transmissions per heartbeat interval vs population",
			XLabel: "population n",
			LogY:   true,
			YFloor: 1,
		}
		var clS, flS textplot.Series
		clS.Name, flS.Name = "cluster-fds", "flooding"
		for _, n := range ns {
			clS.X = append(clS.X, float64(n))
			clS.Y = append(clS.Y, cluster(n))
			flS.X = append(flS.X, float64(n))
			flS.Y = append(flS.Y, analysis.FloodingPerInterval(n, p))
		}
		chart.Series = []textplot.Series{clS, flS}
		fmt.Println(chart.Render())
	}
}

// headToHead prints the Ext. I study: every requested detector under every
// disruption scenario on identical seeds, one row per cell. The field is a
// dense clique (64 m side, everyone in radio range) so the one-hop-only
// detectors compete on protocol quality rather than on reach, which is what
// the head-to-head is for; multi-hop scaling is Ext. C/H's subject.
func headToHead(seed int64, trials, workers int, filter string) {
	m := scenario.Matrix{
		Config:  scenario.Config{Seed: seed, Nodes: 40, FieldSide: 64},
		Trials:  trials,
		Workers: workers,
	}
	if filter != "" {
		for _, name := range strings.Split(filter, ",") {
			s, err := scenario.ParseStack(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdsfigs: %v\n", err)
				os.Exit(2)
			}
			m.Stacks = append(m.Stacks, s)
		}
	}
	r := m.Run()
	fmt.Printf("# Ext. I: head-to-head detector matrix (n = %d, %.0f m clique, %d trials/cell)\n",
		m.Config.Nodes, float64(m.Config.FieldSide), trials)
	if err := r.WriteTSV(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fdsfigs: writing matrix: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("matrix hash: %016x\n\n", r.Hash())
}

// mcValidation prints the Ext. B comparison: analytic prediction vs the
// protocol implementation's measured rates, in the regime where rates are
// measurable. With metrics export paths set, every trial carries a registry
// and the merged snapshot is written after the table.
func mcValidation(seed int64, trials, workers int, metricsJSON, metricsCSV string) {
	collect := metricsJSON != "" || metricsCSV != ""
	fmt.Println("# Ext. B: Monte-Carlo validation (protocol implementation vs formulas)")
	fmt.Println("measure\tN\tp\tanalytic\tempirical\twilson95lo\twilson95hi\tconsistent")
	cases := []montecarlo.ClusterExperiment{
		{N: 8, LossProb: 0.5, Trials: trials, Seed: seed, Workers: workers},
		{N: 8, LossProb: 0.6, Trials: trials, Seed: seed + 1, Workers: workers},
		{N: 12, LossProb: 0.6, Trials: trials, Seed: seed + 2, Workers: workers},
		{N: 15, LossProb: 0.5, Trials: trials, Seed: seed + 3, Workers: workers},
	}
	var merged metrics.Snapshot
	for _, e := range cases {
		e.CollectMetrics = collect
		for _, out := range e.AllMeasures() {
			lo, hi := out.Empirical.Wilson(1.96)
			fmt.Printf("%s\t%d\t%.2f\t%.4e\t%.4e\t%.4e\t%.4e\t%v\n",
				out.Name, e.N, e.LossProb, out.Analytic,
				out.Empirical.Estimate(), lo, hi, out.Consistent(1.96))
			merged.Merge(out.Metrics)
		}
	}
	fmt.Println()
	if err := merged.Export(os.Stdout, metricsJSON, metricsCSV); err != nil {
		fmt.Fprintf(os.Stderr, "fdsfigs: %v\n", err)
		os.Exit(1)
	}
}
