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
//	      [-trace protocol|radio|causes]
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
// strictly serially on the calling goroutine. A study reads 0 as its
// default, so with -trials > 1 fdsim refuses an -epochs, -crashes or
// -crash-epoch of 0.
//
// -metrics and -metrics-csv export the run's full metrics snapshot — per-kind
// message counters, per-epoch event series, latency histograms, summary
// gauges — as deterministic JSON/CSV (see EXPERIMENTS.md for the schema).
// With -trials T > 1 the exported snapshot is the merge of all replicas in
// replica order, byte-identical at every -workers value.
//
// -shards and -epoch-workers select the sharded and the strip engine. Each
// runs one trial of the cluster-fds stack with every mechanism on and
// exports no metrics, so fdsim refuses (exit 2) the two together and, with
// either, -trials above 1, a -detector other than cluster-fds, the -no-*
// ablations, -aggregate, -sleep, -naive-sleep, -metrics and -metrics-csv,
// rather than run without them. A -crash-epoch at or past -epochs crashes
// nobody, and every summary says so instead of naming victims.
//
// -trace prints one serial trial's structured events on stdout in place of
// the summary; every other flag keeps its meaning. At -trace protocol the
// protocol-level events (elections, detections, takeovers, report
// forwarding) are JSON lines, one object per event, for jq or downstream
// tooling; -trace radio adds the per-message send/deliver/drop firehose; and
// -trace causes prints no event but ends with a table counting the
// failure-report steps (report-forward, retransmit, bgw-assist) per epoch
// and per cause — the first token of their Detail, see intercluster's note —
// so a report storm can be read off as "which cause, starting in which
// epoch". Lines naming -metrics files then go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/metrics"
	"clusterfds/internal/par"
	"clusterfds/internal/scenario"
	"clusterfds/internal/shard"
	"clusterfds/internal/sim"
	"clusterfds/internal/sleep"
	"clusterfds/internal/stats"
	"clusterfds/internal/trace"
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
	traceLevel := flag.String("trace", "",
		"print one serial trial's events on stdout in place of the summary: protocol, radio (JSON lines), causes (per-epoch x cause table)")
	flag.Parse()

	if err := checkFlags(options{*nodes, *field, *lossProb, *epochs, *crashes, *crashEpoch,
		*shards, *epochWorkers, *trials, *traceLevel, *workers, *shardWorkers,
		serialFlags{*detector, *noPeerFwd, *noBGW, *noAcks, *withAgg, *withSleep, *naiveSleep,
			*metricsJSON, *metricsCSV}}); err != nil {
		fmt.Fprintf(os.Stderr, "fdsim: %v\n", err)
		os.Exit(2)
	}
	// A crash past the run's end never happens, so each summary says so in
	// place of its crash report. The single-trial engines schedule none; a
	// replicated study, which reads 0 crashes as 2, schedules its two victims
	// past the end, where they never fall.
	pastEnd := crashPastEnd(*crashes, *crashEpoch, *epochs)
	if pastEnd != "" {
		*crashes = 0
	}

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
		}, *shards, *shardWorkers, *epochs, *crashes, *crashEpoch, pastEnd)
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
		}, *epochs, *crashes, *crashEpoch, pastEnd)
		return
	}

	stack, _ := scenario.ParseStack(*detector) // checkFlags has vetted the name

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
			*metricsJSON, *metricsCSV, pastEnd)
		return
	}
	var causes *causeTable
	switch *traceLevel {
	case "protocol":
		cfg.Trace = trace.Protocol{Next: trace.NewJSONL(os.Stdout)}
	case "radio":
		cfg.Trace = trace.NewJSONL(os.Stdout)
	case "causes":
		causes = newCauseTable(cluster.DefaultTiming().Interval, *epochs)
		cfg.Trace = causes
	}
	w := scenario.Build(cfg)
	timing := w.Config().Timing
	crashAt := timing.EpochStart(wire.Epoch(*crashEpoch)) + timing.Interval/2
	victims := w.CrashRandomAt(crashAt, *crashes)
	w.RunEpochs(*epochs)
	if *traceLevel != "" {
		if causes != nil {
			causes.write(os.Stdout)
		}
		exportMetrics(w.MetricsSnapshot(), *metricsJSON, *metricsCSV, os.Stderr)
		return
	}

	fmt.Printf("fdsim: stack=%v nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d\n",
		stack, *nodes, *field, *lossProb, *epochs, *seed)
	fmt.Printf("virtual time simulated: %v (%d kernel events)\n\n",
		time.Duration(w.Kernel.Now()), w.Kernel.Steps())

	printDetection(&w.HostTable, stack == scenario.StackClusterFDS, pastEnd, *crashEpoch, timing.Interval, victims, w.DetectionLatencies)

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
	fmt.Printf("\nenergy spent (all hosts): %.0f units", w.TotalEnergySpent())
	if *epochs > 0 {
		fmt.Printf(" (%.1f per host per epoch)", w.TotalEnergySpent()/float64(*nodes)/float64(*epochs))
	}
	fmt.Println()

	if *withAgg {
		for _, id := range w.Operational() {
			if w.Cluster(id) != nil && w.Cluster(id).IsCH() {
				e := timing.EpochOf(w.Kernel.Now()) - 1
				g, clusters := w.Aggregate(id).Global(e)
				fmt.Printf("\nglobal aggregate at CH %v (epoch %d, %d clusters): %s\n",
					id, e, clusters, g)
				break
			}
		}
	}

	exportMetrics(w.MetricsSnapshot(), *metricsJSON, *metricsCSV, os.Stdout)
}

// options are the flag values checkFlags judges.
type options struct {
	nodes                       int
	field, lossProb             float64
	epochs, crashes, crashEpoch int
	shards, epochWorkers        int
	trials                      int
	trace                       string
	workers, shardWorkers       int
	serial                      serialFlags
}

// serialFlags are the flags only the serial engine reads.
type serialFlags struct {
	detector                 string
	noPeerFwd, noBGW, noAcks bool
	aggregate, sleep, naive  bool
	metricsJSON, metricsCSV  string
}

// ignored names the flags in f that change the serial engine's run or
// output, as given.
func (f serialFlags) ignored() []string {
	var names []string
	if f.detector != scenario.StackClusterFDS.String() {
		names = append(names, "-detector "+f.detector)
	}
	for _, b := range []struct {
		set  bool
		name string
	}{
		{f.noPeerFwd, "-no-peer-forwarding"}, {f.noBGW, "-no-bgw"}, {f.noAcks, "-no-implicit-acks"},
		{f.aggregate, "-aggregate"}, {f.sleep, "-sleep"}, {f.naive, "-naive-sleep"},
		{f.metricsJSON != "", "-metrics"}, {f.metricsCSV != "", "-metrics-csv"},
	} {
		if b.set {
			names = append(names, b.name)
		}
	}
	return names
}

// checkFlags rejects the flag values no engine can run, before any starts:
// no hosts or no field (the builders would silently substitute their
// defaults), a loss probability outside [0,1], a negative epoch, crash count
// or crash epoch, a sharded run of zero epochs, a worker pool of no workers
// (a negative -epoch-workers; its 0 means the serial engine), an unknown
// trace level or detector, a trace of anything but one serial trial, and a
// replicated study given a 0 it would replace by its default. It
// also rejects a flag the chosen engine would silently ignore: -shards and
// -epoch-workers together, and with either, more than one trial or any flag
// only the serial engine reads.
func checkFlags(o options) error {
	if _, err := scenario.ParseStack(o.serial.detector); err != nil {
		return fmt.Errorf("-detector %q: the detectors are %v", o.serial.detector, scenario.Stacks())
	}
	switch {
	case o.nodes < 1:
		return fmt.Errorf("-nodes %d: at least one host is needed", o.nodes)
	case !(o.field > 0):
		return fmt.Errorf("-field %v: the field's edge must be positive", o.field)
	case !(o.lossProb >= 0 && o.lossProb <= 1):
		return fmt.Errorf("-p %v: a loss probability lies in [0,1]", o.lossProb)
	case o.epochs < 0 || o.crashes < 0 || o.crashEpoch < 0:
		return fmt.Errorf("-epochs %d -crashes %d -crash-epoch %d: none may be negative", o.epochs, o.crashes, o.crashEpoch)
	case o.shards > 0 && o.epochs == 0:
		return fmt.Errorf("-shards %d -epochs 0: the sharded engine runs at least one epoch", o.shards)
	case o.workers < 1 || o.shardWorkers < 1 || o.epochWorkers < 0:
		return fmt.Errorf("-workers %d -shard-workers %d -epoch-workers %d: a pool needs at least one worker (-epoch-workers 0 is the serial engine)",
			o.workers, o.shardWorkers, o.epochWorkers)
	case o.trace != "" && o.trace != "protocol" && o.trace != "radio" && o.trace != "causes":
		return fmt.Errorf("-trace %q: the levels are protocol, radio and causes", o.trace)
	case o.trace != "" && o.trials > 1:
		return fmt.Errorf("-trace %s -trials %d: a trace follows one trial", o.trace, o.trials)
	case o.trace != "" && (o.shards > 0 || o.epochWorkers > 0):
		return fmt.Errorf("-trace %s -shards %d -epoch-workers %d: a trace follows the serial engine",
			o.trace, o.shards, o.epochWorkers)
	case o.trials > 1 && (o.epochs == 0 || o.crashes == 0 || o.crashEpoch == 0):
		return fmt.Errorf("-trials %d -epochs %d -crashes %d -crash-epoch %d: a replicated study reads 0 as its default (12 epochs, 2 crashes, crash epoch 3)",
			o.trials, o.epochs, o.crashes, o.crashEpoch)
	case o.shards > 0 && o.epochWorkers > 0:
		return fmt.Errorf("-shards %d -epoch-workers %d: these choose two different engines", o.shards, o.epochWorkers)
	}
	engine := fmt.Sprintf("-shards %d", o.shards)
	if o.epochWorkers > 0 {
		engine = fmt.Sprintf("-epoch-workers %d", o.epochWorkers)
	} else if o.shards == 0 {
		return nil
	}
	ignored := o.serial.ignored()
	if o.trials > 1 {
		ignored = append(ignored, fmt.Sprintf("-trials %d", o.trials))
	}
	if len(ignored) > 0 {
		return fmt.Errorf("%s: this engine runs one trial of the cluster-fds stack with every mechanism on and no metrics export; it would ignore %s",
			engine, strings.Join(ignored, " "))
	}
	return nil
}

// crashPastEnd is the line a summary prints in place of its crash report
// when the crash instant, the midpoint of epoch crashEpoch, is at or after
// the run's end, the start of epoch `epochs`; it is empty when the crashes
// fall inside the run or none are asked for.
func crashPastEnd(crashes, crashEpoch, epochs int) string {
	if crashes == 0 || crashEpoch < epochs {
		return ""
	}
	return fmt.Sprintf("no crashes: -crash-epoch %d is at or past the run's end (-epochs %d)\n\n", crashEpoch, epochs)
}

// exportMetrics writes the snapshot to the requested JSON/CSV files (empty
// path = skip), naming each file written on log, and exits 1 on the first
// error. Both exports are deterministic byte-for-byte.
func exportMetrics(s metrics.Snapshot, jsonPath, csvPath string, log io.Writer) {
	if err := s.Export(log, jsonPath, csvPath); err != nil {
		fmt.Fprintf(os.Stderr, "fdsim: %v\n", err)
		os.Exit(1)
	}
}

// runReplicated fans trials independent replicas of the scenario out over
// the replication engine and prints aggregate statistics. Replica seeds are
// derived deterministically from cfg.Seed, so the printed numbers are a
// pure function of the flags — never of the worker count.
func runReplicated(cfg scenario.Config, stack scenario.Stack, trials, workers, crashes, crashEpoch, epochs int, metricsJSON, metricsCSV, pastEnd string) {
	study := scenario.Matrix{
		Config:     cfg,
		Stacks:     []scenario.Stack{stack},
		Scenarios:  []scenario.ScenarioKind{scenario.ScenarioCrashWave},
		Crashes:    crashes,
		CrashEpoch: crashEpoch,
		Epochs:     epochs,
		Trials:     trials,
		Workers:    workers,
	}
	start := time.Now()
	s := study.Run().Cells[0].Summary
	elapsed := time.Since(start)

	fmt.Printf("fdsim: stack=%v nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d trials=%d workers=%d\n",
		stack, cfg.Nodes, cfg.FieldSide, cfg.LossProb, epochs, cfg.Seed, trials, workers)
	fmt.Printf("wall clock: %v (%.1f replicas/s)\n\n", elapsed.Round(time.Millisecond),
		float64(trials)/elapsed.Seconds())
	if pastEnd != "" {
		fmt.Print(strings.TrimSuffix(pastEnd, "\n"))
	} else {
		fmt.Printf("completeness: mean %.4f min %.4f max %.4f\n",
			s.Completeness.Mean(), s.Completeness.Min(), s.Completeness.Max())
		fmt.Printf("victims: %d, undetected %d; admitted at crash %d, of them undetected %d\n",
			s.Victims, s.Undetected, s.Admitted, s.AdmittedUndetected)
	}
	fmt.Printf("failure-report tx: %d across %d replicas\n", s.ReportTx, s.Trials)
	if s.LatencySeconds.N() > 0 {
		fmt.Printf("detection latency (s): mean %.2f p95 %.2f max %.2f (%d observations)\n",
			s.LatencySeconds.Mean(), s.LatencySeconds.Percentile(0.95),
			s.LatencySeconds.Max(), s.LatencySeconds.N())
	}
	fmt.Printf("false suspicions: %d across %d replicas\n", s.FalseSuspicions, s.Trials)
	fmt.Printf("per-replica means: %.0f tx msgs, %.0f tx bytes, %.0f energy units\n",
		s.TxMessages, s.TxBytes, s.Energy)
	exportMetrics(s.Metrics, metricsJSON, metricsCSV, os.Stdout)
}

// runSharded executes the large-scale sharded engine (see internal/shard)
// and prints its summary: detection outcomes per victim, traffic and energy
// totals, epoch throughput, memory per node, and the two determinism
// hashes. The hashes and the busy-window count are the scale-smoke contract:
// `make scale-smoke` asserts they are identical between -shards 1 and
// -shards 4.
func runSharded(cfg scenario.Config, shards, workers, epochs, crashes, crashEpoch int, pastEnd string) {
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

	fmt.Print(pastEnd)
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
func runParallel(cfg par.Config, epochs, crashes, crashEpoch int, pastEnd string) {
	buildStart := time.Now()
	p := par.Build(cfg)
	buildElapsed := time.Since(buildStart)

	timing := cluster.DefaultTiming()
	crashAt := timing.EpochStart(wire.Epoch(crashEpoch)) + timing.Interval/2
	victims := p.CrashRandomAt(crashAt, crashes)

	runStart := time.Now()
	p.RunEpochs(epochs)
	runElapsed := time.Since(runStart)

	fmt.Printf("fdsim: parallel engine nodes=%d field=%.0fm p=%.2f epochs=%d seed=%d strips=%d workers=%d\n",
		cfg.Nodes, cfg.FieldSide, cfg.LossProb, epochs, cfg.Seed, p.Strips(), cfg.Workers)
	fmt.Printf("build: %v; run: %v for %d sends / %d deliveries\n\n",
		buildElapsed.Round(time.Millisecond), runElapsed.Round(time.Millisecond),
		p.Sends(), p.Deliveries())

	printDetection(&p.HostTable, true, pastEnd, crashEpoch, timing.Interval, victims, nil)
	fmt.Printf("trace hash: %s\n", p.TraceHash())
}

// printDetection prints, from the host table both engines keep, the cluster
// census (if census is set), the victims of the crash wave at crashEpoch's
// midpoint with how many operational hosts know of each, and the false
// suspicions. latencies, where the engine samples them, adds each victim's
// detection latency to its line.
func printDetection(r *par.HostTable, census bool, pastEnd string, crashEpoch int, interval sim.Time,
	victims []wire.NodeID, latencies func(wire.NodeID) []sim.Time) {
	if census {
		c := r.Census()
		fmt.Printf("cluster census: %d clusterheads, %d members (%d gateways), %d unadmitted\n\n",
			c.Clusterheads, c.Members, c.Gateways, c.Unmarked)
	}

	fmt.Print(pastEnd)
	if len(victims) > 0 {
		fmt.Printf("crashed at epoch %d (+%v): %v\n", crashEpoch, interval/2, victims)
		for _, v := range victims {
			aware, operational := r.Completeness(v)
			fmt.Printf("  %v: known by %d/%d operational hosts", v, aware, operational)
			if latencies != nil {
				lat := stats.NewSummary(true)
				for _, l := range latencies(v) {
					lat.Add(time.Duration(l).Seconds())
				}
				if lat.N() > 0 {
					fmt.Printf("; detection latency mean %.2fs p95 %.2fs max %.2fs",
						lat.Mean(), lat.Percentile(0.95), lat.Max())
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if fs := r.FalseSuspicions(); len(fs) > 0 {
		fmt.Printf("FALSE SUSPICIONS (%d): %v\n\n", len(fs), fs)
	} else {
		fmt.Printf("false suspicions: none\n\n")
	}
}
