// Command fdsim runs a full-system simulation — cluster formation, the
// three-round FDS, and inter-cluster failure-report forwarding (or one of
// the baseline detectors) — over a random field, injects crashes, and
// prints a summary: cluster census, per-victim completeness and detection
// latency, false suspicions, message counts, and energy expenditure.
//
// Usage:
//
//	fdsim [-nodes 100] [-field 500] [-p 0.1] [-epochs 12] [-crashes 3]
//	      [-crash-epoch 4] [-detector cluster-fds|gossip|flood|swim|query-response|all-pairs]
//	      [-seed 1] [-trials 1] [-workers N]
//	      [-metrics out.json] [-metrics-csv out.csv]
//	      [-no-peer-forwarding] [-no-bgw] [-no-implicit-acks]
//	      [-aggregate] [-sleep] [-naive-sleep]
//	      [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run
// (the heap profile is taken at exit, after a final GC); see EXPERIMENTS.md
// § "Profiling the epoch hot loop" for how to read them.
//
// With -trials 1 (the default) fdsim runs and reports one simulation
// exactly as it always has. With -trials T > 1 it fans T independent,
// deterministically seeded replicas of the same scenario out over -workers
// cores (default GOMAXPROCS) and prints aggregate statistics; the output is
// identical for every worker count, and -workers 1 executes the replicas
// strictly serially on the calling goroutine.
//
// -metrics and -metrics-csv export the run's full metrics snapshot — per-kind
// message counters, per-epoch event series, latency histograms, summary
// gauges — as deterministic JSON/CSV (see EXPERIMENTS.md for the schema).
// With -trials T > 1 the exported snapshot is the merge of all replicas in
// replica order, byte-identical at every -workers value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/metrics"
	"clusterfds/internal/par"
	"clusterfds/internal/scenario"
	"clusterfds/internal/shard"
	"clusterfds/internal/sim"
	"clusterfds/internal/sleep"
	"clusterfds/internal/stats"
	"clusterfds/internal/wire"
)

func main() {
	nodes := flag.Int("nodes", 100, "number of hosts")
	field := flag.Float64("field", 500, "deployment square edge (m)")
	lossProb := flag.Float64("p", 0.1, "per-receiver message loss probability")
	epochs := flag.Int("epochs", 12, "heartbeat intervals to simulate")
	crashes := flag.Int("crashes", 3, "hosts to crash")
	crashEpoch := flag.Int("crash-epoch", 4, "epoch at whose midpoint crashes occur")
	detector := flag.String("detector", "cluster-fds",
		"detector to run: cluster-fds, gossip, flood, swim, query-response, all-pairs")
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 1, "independent seeded replicas to run (1 = single legacy run)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"replica worker pool size (1 = serial; results are identical at any count)")
	noPeerFwd := flag.Bool("no-peer-forwarding", false, "disable intra-cluster peer forwarding")
	noBGW := flag.Bool("no-bgw", false, "disable backup-gateway assistance")
	noAcks := flag.Bool("no-implicit-acks", false, "disable implicit-ack retransmission")
	metricsJSON := flag.String("metrics", "", "write the metrics snapshot as JSON to this file")
	metricsCSV := flag.String("metrics-csv", "", "write the metrics snapshot as CSV to this file")
	withAgg := flag.Bool("aggregate", false, "attach the in-network aggregation service")
	withSleep := flag.Bool("sleep", false, "attach announced radio duty cycling")
	naiveSleep := flag.Bool("naive-sleep", false, "duty cycling WITHOUT sleep notices (the paper's hazard)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	shards := flag.Int("shards", 0,
		"run the sharded large-scale engine with this many spatial shards (0 = legacy per-host runtime); results are bit-identical at every shard count")
	shardWorkers := flag.Int("shard-workers", 1,
		"worker pool draining shards within a window (sharded engine only; any value gives identical results)")
	epochWorkers := flag.Int("epoch-workers", 0,
		"run the intra-replica parallel engine with this many workers (0 = legacy serial runtime); the trace hash is bit-identical at every worker count")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fdsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fdsim: cpuprofile: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdsim: memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle: profile live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fdsim: memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fdsim: memprofile: %v\n", err)
			}
		}()
	}

	if *shards > 0 {
		runSharded(scenario.Config{
			Seed:      *seed,
			Nodes:     *nodes,
			FieldSide: *field,
			LossProb:  *lossProb,
		}, *shards, *shardWorkers, *epochs, *crashes, *crashEpoch)
		return
	}

	if *epochWorkers > 0 {
		runParallel(par.Config{
			Seed:         *seed,
			Nodes:        *nodes,
			FieldSide:    *field,
			LossProb:     *lossProb,
			Workers:      *epochWorkers,
			CollectTrace: true,
		}, *epochs, *crashes, *crashEpoch)
		return
	}

	stack, err := scenario.ParseStack(*detector)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdsim: %v\n", err)
		os.Exit(2)
	}

	cfg := scenario.Config{
		Seed:                  *seed,
		Nodes:                 *nodes,
		FieldSide:             *field,
		LossProb:              *lossProb,
		Stack:                 stack,
		DisablePeerForwarding: *noPeerFwd,
		DisableBGWAssist:      *noBGW,
		DisableImplicitAcks:   *noAcks,
	}
	if *withAgg {
		cfg.AggregateSampler = func(id wire.NodeID, e wire.Epoch) (float64, bool) {
			return float64(id%100) + float64(e%10), true
		}
	}
	if *withSleep || *naiveSleep {
		scfg := sleep.DefaultConfig()
		scfg.Announce = !*naiveSleep
		cfg.Sleep = &scfg
	}
	if *trials > 1 {
		runReplicated(cfg, stack, *trials, *workers, *crashes, *crashEpoch, *epochs,
			*metricsJSON, *metricsCSV)
		return
	}
	w := scenario.Build(cfg)
	timing := w.Config().Timing
	ce := *crashEpoch
	if ce < 0 {
		ce = 0
	}
	crashAt := timing.EpochStart(wire.Epoch(ce)) + timing.Interval/2
	victims := w.CrashRandomAt(crashAt, *crashes)
	w.RunEpochs(*epochs)

	fmt.Printf("fdsim: stack=%v nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d\n",
		stack, *nodes, *field, *lossProb, *epochs, *seed)
	fmt.Printf("virtual time simulated: %v (%d kernel events)\n\n",
		time.Duration(w.Kernel.Now()), w.Kernel.Steps())

	if stack == scenario.StackClusterFDS {
		c := w.Census()
		fmt.Printf("cluster census: %d clusterheads, %d members (%d gateways), %d unadmitted\n\n",
			c.Clusterheads, c.Members, c.Gateways, c.Unmarked)
	}

	if len(victims) > 0 {
		fmt.Printf("crashed at epoch %d (+%v): %v\n", *crashEpoch, timing.Interval/2, victims)
		for _, v := range victims {
			aware, operational := w.Completeness(v)
			lat := w.DetectionLatencies(v)
			latSummary := stats.NewSummary(true)
			for _, l := range lat {
				latSummary.Add(time.Duration(l).Seconds())
			}
			fmt.Printf("  %v: known by %d/%d operational hosts", v, aware, operational)
			if latSummary.N() > 0 {
				fmt.Printf("; detection latency mean %.2fs p95 %.2fs max %.2fs",
					latSummary.Mean(), latSummary.Percentile(0.95), latSummary.Max())
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if fs := w.FalseSuspicions(); len(fs) > 0 {
		fmt.Printf("FALSE SUSPICIONS (%d): %v\n\n", len(fs), fs)
	} else {
		fmt.Printf("false suspicions: none\n\n")
	}

	counts := w.MessageCounts()
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("message counts:")
	var txTotal int64
	for _, name := range names {
		if len(name) > 3 && name[:3] == "tx:" {
			txTotal += counts[name]
		}
		fmt.Printf("  %-24s %d\n", name, counts[name])
	}
	fmt.Printf("  %-24s %d\n", "TX TOTAL", txTotal)
	fmt.Printf("\nenergy spent (all hosts): %.0f units (%.1f per host per epoch)\n",
		w.TotalEnergySpent(),
		w.TotalEnergySpent()/float64(*nodes)/float64(*epochs))

	if *withAgg {
		for _, id := range w.Operational() {
			if w.Cluster(id) != nil && w.Cluster(id).View().IsCH {
				e := timing.EpochOf(w.Kernel.Now()) - 1
				g, clusters := w.Aggregate(id).Global(e)
				fmt.Printf("\nglobal aggregate at CH %v (epoch %d, %d clusters): %s\n",
					id, e, clusters, g)
				break
			}
		}
	}

	exportMetrics(w.MetricsSnapshot(), *metricsJSON, *metricsCSV)
}

// exportMetrics writes the snapshot to the requested JSON/CSV files (empty
// path = skip). Both exports are deterministic byte-for-byte.
func exportMetrics(s metrics.Snapshot, jsonPath, csvPath string) {
	write := func(path, format string, fn func(*os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdsim: writing %s metrics: %v\n", format, err)
			os.Exit(1)
		}
		fmt.Printf("metrics (%s) written to %s\n", format, path)
	}
	write(jsonPath, "json", func(f *os.File) error { return s.WriteJSON(f) })
	write(csvPath, "csv", func(f *os.File) error { return s.WriteCSV(f) })
}

// runReplicated fans trials independent replicas of the scenario out over
// the replication engine and prints aggregate statistics. Replica seeds are
// derived deterministically from cfg.Seed, so the printed numbers are a
// pure function of the flags — never of the worker count.
func runReplicated(cfg scenario.Config, stack scenario.Stack, trials, workers, crashes, crashEpoch, epochs int, metricsJSON, metricsCSV string) {
	if crashEpoch < 0 {
		crashEpoch = 0
	}
	study := scenario.CrashStudy{
		Config:     cfg,
		Crashes:    crashes,
		CrashEpoch: crashEpoch,
		Epochs:     epochs,
		Trials:     trials,
		Workers:    workers,
	}
	start := time.Now()
	outcomes := study.Run()
	elapsed := time.Since(start)
	s := scenario.Summarize(outcomes)

	fmt.Printf("fdsim: stack=%v nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d trials=%d workers=%d\n",
		stack, cfg.Nodes, cfg.FieldSide, cfg.LossProb, epochs, cfg.Seed, trials, workers)
	fmt.Printf("wall clock: %v (%.1f replicas/s)\n\n", elapsed.Round(time.Millisecond),
		float64(trials)/elapsed.Seconds())
	fmt.Printf("completeness: mean %.4f min %.4f max %.4f\n",
		s.Completeness.Mean(), s.Completeness.Min(), s.Completeness.Max())
	fmt.Printf("victims: %d, undetected %d; admitted at crash %d, of them undetected %d\n",
		s.Victims, s.Undetected, s.Admitted, s.AdmittedUndetected)
	fmt.Printf("failure-report tx: %d across %d replicas\n", s.ReportTx, s.Trials)
	if s.LatencySeconds.N() > 0 {
		fmt.Printf("detection latency (s): mean %.2f p95 %.2f max %.2f (%d observations)\n",
			s.LatencySeconds.Mean(), s.LatencySeconds.Percentile(0.95),
			s.LatencySeconds.Max(), s.LatencySeconds.N())
	}
	fmt.Printf("false suspicions: %d across %d replicas\n", s.FalseSuspicions, s.Trials)
	fmt.Printf("per-replica means: %.0f tx msgs, %.0f tx bytes, %.0f energy units\n",
		s.TxMessages, s.TxBytes, s.Energy)
	exportMetrics(s.Metrics, metricsJSON, metricsCSV)
}

// runSharded executes the large-scale sharded engine (see internal/shard)
// and prints its summary: detection outcomes per victim, traffic and energy
// totals, epoch throughput, memory per node, and the two determinism
// hashes. The hashes and the busy-window count are the scale-smoke contract:
// `make scale-smoke` asserts they are identical between -shards 1 and
// -shards 4.
func runSharded(cfg scenario.Config, shards, workers, epochs, crashes, crashEpoch int) {
	sc := scenario.ShardedCrashWave(cfg, shards, workers, epochs, crashes, crashEpoch)

	// Liveness lines on stderr every 5 simulated seconds; stdout stays
	// reserved for the summary (the scale-smoke gate greps it for hashes).
	startWall := time.Now()
	sc.Progress = func(at sim.Time, events uint64) {
		fmt.Fprintf(os.Stderr, "progress: t=%v %d events (%.0f events/sec wall)\n",
			time.Duration(at).Round(time.Millisecond), events,
			float64(events)/time.Since(startWall).Seconds())
	}

	buildStart := time.Now()
	eng := shard.Build(sc)
	buildElapsed := time.Since(buildStart)

	runStart := time.Now()
	res := eng.Run()
	runElapsed := time.Since(runStart)

	fmt.Printf("fdsim: sharded engine nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d shards=%d workers=%d\n",
		sc.N, sc.Side, sc.Radio.LossProb, epochs, sc.Seed, res.Shards, res.Workers)
	fmt.Printf("build: %v (%.1f MB live heap, %.0f bytes/node)\n",
		buildElapsed.Round(time.Millisecond),
		float64(res.BuildHeapBytes)/(1<<20),
		float64(res.BuildHeapBytes)/float64(sc.N))
	perSec := float64(res.Events) / runElapsed.Seconds()
	fmt.Printf("run: %v for %d events (%.0f events/sec, %.0f events/epoch)\n",
		runElapsed.Round(time.Millisecond), res.Events, perSec,
		float64(res.Events)/float64(epochs))
	fmt.Printf("busy windows: %d\n\n", res.Windows)

	if len(res.Victims) > 0 {
		fmt.Printf("crash wave: %d victims at epoch %d midpoint; %d detected by their cells\n",
			len(res.Victims), crashEpoch, res.Detected)
		show := res.Victims
		const maxShow = 10
		if len(show) > maxShow {
			show = show[:maxShow]
		}
		for _, v := range show {
			if v.DetectedAt < 0 {
				fmt.Printf("  %v: never detected (likely alone in its cell); known by %d hosts\n", v.ID, v.Aware)
				continue
			}
			fmt.Printf("  %v: detected after %v; known by %d/%d hosts\n",
				v.ID, time.Duration(v.DetectedAt-v.CrashedAt), v.Aware, sc.N)
		}
		if len(res.Victims) > maxShow {
			fmt.Printf("  ... and %d more\n", len(res.Victims)-maxShow)
		}
		fmt.Println()
	}

	fmt.Printf("traffic: %d sends, %d deliveries, %d loss drops, %d dead drops\n",
		res.Sends, res.Deliveries, res.DropLoss, res.DropDead)
	fmt.Printf("bytes: %d tx, %d rx\n", res.TxBytes, res.RxBytes)
	fmt.Printf("detector: %d false positives, %d rescues\n", res.FalsePositives, res.Rescues)
	fmt.Printf("energy spent (all hosts): %.0f units\n\n", res.EnergySpent)

	fmt.Printf("trace hash: %016x\n", res.TraceHash)
	fmt.Printf("state hash: %016x\n", res.StateHash)
}

// runParallel drives the intra-replica parallel engine (internal/par): the
// production cluster stack partitioned into field strips and drained by a
// conservative-window worker pool. The printed trace hash is bit-identical at
// every -epoch-workers value (TestGoldenParallelTraceHash pins it at 1, 2, 4).
func runParallel(cfg par.Config, epochs, crashes, crashEpoch int) {
	buildStart := time.Now()
	p := par.Build(cfg)
	buildElapsed := time.Since(buildStart)

	timing := cluster.DefaultTiming() // cfg.Timing is zero: par.Build's default
	ce := crashEpoch
	if ce < 0 {
		ce = 0
	}
	crashAt := timing.EpochStart(wire.Epoch(ce)) + timing.Interval/2
	victims := p.CrashRandomAt(crashAt, crashes)

	runStart := time.Now()
	p.RunEpochs(epochs)
	runElapsed := time.Since(runStart)

	fmt.Printf("fdsim: parallel engine nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d strips=%d workers=%d\n",
		cfg.Nodes, cfg.FieldSide, cfg.LossProb, epochs, cfg.Seed, p.Strips(), cfg.Workers)
	fmt.Printf("build: %v; run: %v for %d sends / %d deliveries\n\n",
		buildElapsed.Round(time.Millisecond), runElapsed.Round(time.Millisecond),
		p.Sends(), p.Deliveries())

	if len(victims) > 0 {
		fmt.Printf("crashed at epoch %d (+%v): %v\n", ce, timing.Interval/2, victims)
		for _, v := range victims {
			aware, operational := p.Completeness(v)
			fmt.Printf("  %v: known by %d/%d operational hosts\n", v, aware, operational)
		}
		fmt.Println()
	}

	fmt.Printf("trace hash: %s\n", p.TraceHash())
}
