// Benchmark harness: one benchmark per evaluation artifact of the paper
// (Figures 5, 6, 7) and per extension experiment in DESIGN.md (Ext. A–E),
// plus performance benchmarks for the substrate. Each figure benchmark
// regenerates the published series and reports its headline numbers as
// benchmark metrics, so `go test -bench=.` doubles as the reproduction run;
// cmd/fdsfigs prints the same series as TSV/ASCII plots.
package clusterfds_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"clusterfds/internal/analysis"
	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/metrics"
	"clusterfds/internal/montecarlo"
	"clusterfds/internal/node"
	"clusterfds/internal/par"
	"clusterfds/internal/radio"
	"clusterfds/internal/scenario"
	"clusterfds/internal/shard"
	"clusterfds/internal/sim"
	"clusterfds/internal/sleep"
	"clusterfds/internal/wire"
)

// --- Figures 5, 6, 7: the paper's analytic curves ---------------------------

// benchmarkFigure evaluates one full figure (all three population curves
// over the loss sweep) per iteration and reports the curves' endpoints.
func benchmarkFigure(b *testing.B, m analysis.Measure) {
	b.Helper()
	ps := analysis.DefaultLossSweep()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, n := range analysis.PaperPopulations() {
			for _, pt := range analysis.Series(m, n, ps) {
				sink += pt.Value
			}
		}
	}
	_ = sink
	// Headline values, readable off the published plots.
	b.ReportMetric(m.Eval(50, 0.5), "N50_p0.5")
	b.ReportMetric(m.Eval(100, 0.05), "N100_p0.05")
}

// BenchmarkFigure5 regenerates P̂(False detection) vs p (paper Figure 5).
func BenchmarkFigure5(b *testing.B) { benchmarkFigure(b, analysis.MeasureFalseDetection) }

// BenchmarkFigure6 regenerates P(False detection on CH) vs p (Figure 6).
func BenchmarkFigure6(b *testing.B) { benchmarkFigure(b, analysis.MeasureFalseDetectionOnCH) }

// BenchmarkFigure7 regenerates P̂(Incompleteness) vs p (Figure 7).
func BenchmarkFigure7(b *testing.B) { benchmarkFigure(b, analysis.MeasureIncompleteness) }

// BenchmarkFigure5PaperSum evaluates the paper's literal double summation
// (the closed form above is the fast path; this is the fidelity baseline).
func BenchmarkFigure5PaperSum(b *testing.B) {
	ps := analysis.DefaultLossSweep()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, n := range analysis.PaperPopulations() {
			for _, p := range ps {
				sink += analysis.FalseDetectionPaperSum(n, p)
			}
		}
	}
	_ = sink
}

// --- Ext. A: DCH reachability study ------------------------------------------

// BenchmarkDCHReachability reproduces the study the paper describes in
// Section 4.2 but omits: the probability that a member out of the deputy's
// range goes unobserved, versus CH-DCH distance.
func BenchmarkDCHReachability(b *testing.B) {
	c := analysis.DCHReach{R: 100, N: 75, P: 0.1}
	rng := rand.New(rand.NewSource(1))
	var last analysis.Result
	for i := 0; i < b.N; i++ {
		last = c.Evaluate(rng, 50, 200)
	}
	b.ReportMetric(last.OutOfRange, "P_outOfRange_d50")
	b.ReportMetric(last.Unobserved, "P_unobserved_d50")
}

// --- Ext. B: Monte-Carlo validation of the formulas --------------------------

// BenchmarkMonteCarloValidation runs protocol-level trials at parameters
// where the analytic rates are measurable and reports empirical vs analytic.
// consistency=1 means the prediction falls inside the 95% Wilson interval.
// Trials run strictly serially (workers=1): this is the baseline the
// parallel benchmark below is measured against.
func BenchmarkMonteCarloValidation(b *testing.B) {
	for _, tc := range []montecarlo.ClusterExperiment{
		{N: 8, LossProb: 0.5, Seed: 1, Workers: 1},
		{N: 12, LossProb: 0.6, Seed: 2, Workers: 1},
	} {
		tc := tc
		b.Run(fmt.Sprintf("N=%d_p=%.1f", tc.N, tc.LossProb), func(b *testing.B) {
			b.ReportAllocs()
			tc.Trials = b.N
			if tc.Trials < 200 {
				tc.Trials = 200
			}
			out := tc.FalseDetection()
			b.ReportMetric(out.Analytic, "analytic")
			b.ReportMetric(out.Empirical.Estimate(), "empirical")
			consistent := 0.0
			if out.Consistent(1.96) {
				consistent = 1
			}
			b.ReportMetric(consistent, "consistent")
		})
	}
}

// benchMonteCarloFixedWork runs a fixed batch of 400 trials per iteration at
// the given worker count, so serial and parallel ns/op are directly
// comparable: speedup = Serial ns/op ÷ Parallel ns/op.
func benchMonteCarloFixedWork(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	e := montecarlo.ClusterExperiment{N: 10, LossProb: 0.5, Trials: 400, Seed: 42, Workers: workers}
	var last montecarlo.Outcome
	for i := 0; i < b.N; i++ {
		last = e.FalseDetection()
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(last.Empirical.Estimate(), "empirical")
}

// BenchmarkMonteCarloValidationSerial is the 1-worker baseline for the
// speedup comparison (identical statistical output to the parallel run).
func BenchmarkMonteCarloValidationSerial(b *testing.B) { benchMonteCarloFixedWork(b, 1) }

// BenchmarkMonteCarloValidationParallel fans the same 400 trials over
// GOMAXPROCS workers via the replication engine. At >=4 cores this must be
// >=2x faster than BenchmarkMonteCarloValidationSerial while reporting the
// same empirical value — replicas are independent kernels, so the engine
// scales nearly linearly.
func BenchmarkMonteCarloValidationParallel(b *testing.B) { benchMonteCarloFixedWork(b, 0) }

// --- Ext. C: dissemination cost vs baselines (scalability) -------------------

// benchCost runs one crash through a stack per replica — fanned out over
// the replication engine — and reports message/byte/energy cost and
// dissemination quality.
func benchCost(b *testing.B, stack scenario.Stack, nodes int) {
	b.Helper()
	s := scenario.Matrix{
		Config: scenario.Config{
			Seed: 1, Nodes: nodes, FieldSide: 200 * float64(nodes) / 50,
			LossProb: 0.1,
		},
		Stacks: []scenario.Stack{stack}, Scenarios: []scenario.ScenarioKind{scenario.ScenarioCrashWave},
		Crashes: 1, CrashEpoch: 3, Epochs: 8, Trials: b.N,
	}.Run().Cells[0].Summary
	b.ReportMetric(s.TxMessages, "tx-msgs/run")
	b.ReportMetric(s.TxBytes, "tx-bytes/run")
	b.ReportMetric(s.Energy, "energy/run")
	b.ReportMetric(s.Completeness.Mean(), "completeness")
}

// BenchmarkDisseminationClusterFDS measures the paper's system.
func BenchmarkDisseminationClusterFDS(b *testing.B) { benchCost(b, scenario.StackClusterFDS, 150) }

// BenchmarkDisseminationGossip measures the gossip-style baseline.
func BenchmarkDisseminationGossip(b *testing.B) { benchCost(b, scenario.StackGossip, 150) }

// BenchmarkDisseminationFlood measures the flat-flooding baseline the paper
// contrasts against ("far more efficiently than with flat flooding").
func BenchmarkDisseminationFlood(b *testing.B) { benchCost(b, scenario.StackFlood, 150) }

// --- Ext. D: inter-cluster robustness ablations -------------------------------

// benchAblation measures how far a failure report has spread ONE heartbeat
// interval after detection (before the cumulative-update catch-up masks the
// mechanisms' contribution), under heavy loss, with selected robustness
// mechanisms disabled.
func benchAblation(b *testing.B, mutate func(*scenario.Config)) {
	b.Helper()
	cfg := scenario.Config{Seed: 1, Nodes: 120, FieldSide: 450, LossProb: 0.35}
	if mutate != nil {
		mutate(&cfg)
	}
	// Detection happens in epoch 4; sample right after the report flood,
	// at the end of epoch 4. Replicas fan out over the replication engine.
	s := scenario.Matrix{
		Config: cfg,
		Stacks: []scenario.Stack{scenario.StackClusterFDS}, Scenarios: []scenario.ScenarioKind{scenario.ScenarioCrashWave},
		Crashes: 1, CrashEpoch: 3, Epochs: 5, Trials: b.N,
	}.Run().Cells[0].Summary
	b.ReportMetric(s.Completeness.Mean(), "completeness@flood")
}

// BenchmarkInterClusterForwarding quantifies the Section 4.3 mechanisms on
// a random field by early-spread completeness under 35% loss (the layered
// redundancy — border relays, cumulative updates — keeps even the ablated
// configurations close; the chain benchmark below isolates each hop).
func BenchmarkInterClusterForwarding(b *testing.B) {
	b.Run("full", func(b *testing.B) { benchAblation(b, nil) })
	b.Run("no-implicit-acks", func(b *testing.B) {
		benchAblation(b, func(c *scenario.Config) { c.DisableImplicitAcks = true })
	})
	b.Run("no-bgw", func(b *testing.B) {
		benchAblation(b, func(c *scenario.Config) { c.DisableBGWAssist = true })
	})
}

// chainHopDelivery builds the controlled two-hop chain (cluster A - gateway
// - cluster B - gateway - cluster C, exactly one gateway per pair unless
// backups are added) at the given loss probability, crashes a member of A,
// and reports whether the far clusterhead C learned of it within the
// origination epoch. This isolates the per-hop robustness that implicit
// acknowledgments and backup gateways buy.
func chainHopDelivery(b *testing.B, lossProb float64, backups bool, icfg func(*intercluster.Config)) float64 {
	b.Helper()
	delivered := 0
	for i := 0; i < b.N; i++ {
		k := sim.New(int64(i + 1))
		m := radio.New(k, radio.Defaults(lossProb))
		timing := cluster.DefaultTiming()
		positions := []geo.Point{
			{X: 0, Y: 0},     // n1 CH A
			{X: 150, Y: 0},   // n2 CH B
			{X: 300, Y: 0},   // n3 CH C
			{X: -20, Y: 10},  // n4 member A
			{X: -20, Y: -10}, // n5 member A
			{X: 75, Y: 0},    // n6 gateway A-B
			{X: 225, Y: 0},   // n7 gateway B-C
			{X: 20, Y: 30},   // n8 member A (victim)
			{X: 180, Y: 30},  // n9 member B
			{X: 300, Y: 40},  // n10 member C
		}
		if backups {
			positions = append(positions,
				geo.Point{X: 75, Y: 25},  // n11 backup gateway A-B
				geo.Point{X: 225, Y: 25}, // n12 backup gateway B-C
			)
		}
		var hosts []*node.Host
		var fdss []*fds.Protocol
		for j, pos := range positions {
			h := node.New(k, m, wire.NodeID(j+1), pos)
			cfg := intercluster.DefaultConfig(timing)
			if icfg != nil {
				icfg(&cfg)
			}
			hosts = append(hosts, h)
			fdss = append(fdss, intercluster.Install(h, fds.DefaultConfig(timing), cfg).FDS)
		}
		for _, h := range hosts {
			h.Boot()
		}
		k.At(timing.EpochStart(2)+timing.Interval/2, func() { hosts[7].Crash() })
		// Sample at the end of the detection epoch (epoch 3).
		k.RunUntil(timing.EpochStart(4) - 1)
		if fdss[2].IsSuspected(8) { // CH C, two cluster hops from the victim
			delivered++
		}
	}
	return float64(delivered) / float64(b.N)
}

// BenchmarkChainHopRobustness sweeps the Section 4.3 configurations over a
// two-hop backbone at p = 0.3.
func BenchmarkChainHopRobustness(b *testing.B) {
	const p = 0.3
	b.Run("full+bgw", func(b *testing.B) {
		b.ReportMetric(chainHopDelivery(b, p, true, nil), "two-hop-delivery")
	})
	b.Run("full-no-backups-present", func(b *testing.B) {
		b.ReportMetric(chainHopDelivery(b, p, false, nil), "two-hop-delivery")
	})
	b.Run("no-implicit-acks", func(b *testing.B) {
		b.ReportMetric(chainHopDelivery(b, p, true, func(c *intercluster.Config) {
			c.ImplicitAcks = false
		}), "two-hop-delivery")
	})
	b.Run("no-acks-no-backups", func(b *testing.B) {
		b.ReportMetric(chainHopDelivery(b, p, false, func(c *intercluster.Config) {
			c.ImplicitAcks = false
			c.BGWAssist = false
		}), "two-hop-delivery")
	})
}

// BenchmarkPeerForwarding quantifies the intra-cluster completeness
// enhancement (Section 4.2) by the per-epoch health-update miss rate of
// active members at p = 0.3 — the quantity Figure 7 bounds.
func BenchmarkPeerForwarding(b *testing.B) {
	measure := func(b *testing.B, disable bool) {
		var missed, sampled float64
		for i := 0; i < b.N; i++ {
			w := scenario.Build(scenario.Config{
				Seed: int64(i + 1), Nodes: 80, FieldSide: 300, LossProb: 0.3,
				DisablePeerForwarding: disable,
			})
			timing := w.Config().Timing
			for e := 3; e <= 7; e++ {
				w.Run(timing.EpochStart(wire.Epoch(e+1)) - 1)
				for _, id := range w.NodeIDs() {
					f := w.FDS(id)
					if w.Host(id).Crashed() || !f.Active() {
						continue
					}
					if v := w.Cluster(id).View(); v.IsCH {
						continue
					}
					sampled++
					if !f.UpdateReceived() {
						missed++
					}
				}
				w.Run(timing.EpochStart(wire.Epoch(e + 1)))
			}
		}
		b.ReportMetric(missed/sampled, "update-miss-rate")
	}
	b.Run("with-peer-forwarding", func(b *testing.B) { measure(b, false) })
	b.Run("without", func(b *testing.B) { measure(b, true) })
}

// --- Ext. E: CH failure -> DCH takeover ---------------------------------------

// BenchmarkCHTakeover measures takeover success rate and latency when a
// clusterhead dies under loss.
func BenchmarkCHTakeover(b *testing.B) {
	var successes, latSum float64
	for i := 0; i < b.N; i++ {
		w := scenario.Build(scenario.Config{
			Seed: int64(i + 1), Nodes: 60, FieldSide: 250, LossProb: 0.2,
		})
		timing := w.Config().Timing
		w.RunEpochs(3)
		// Crash the lowest-NID clusterhead.
		var ch wire.NodeID
		for _, id := range w.NodeIDs() {
			if w.Cluster(id).View().IsCH {
				ch = id
				break
			}
		}
		if ch == wire.NoNode {
			continue
		}
		w.CrashAt(timing.EpochStart(3)+timing.Interval/2, ch)
		w.RunEpochs(8)
		aware, operational := w.Completeness(ch)
		if operational > 0 && aware == operational {
			successes++
		}
		if lats := w.DetectionLatencies(ch); len(lats) > 0 {
			latSum += time.Duration(lats[0]).Seconds()
		}
	}
	n := float64(b.N)
	b.ReportMetric(successes/n, "full-dissemination-rate")
	b.ReportMetric(latSum/n, "first-detection-s")
}

// --- substrate performance -----------------------------------------------------

// BenchmarkClusterFormation measures end-to-end formation cost by field size.
func BenchmarkClusterFormation(b *testing.B) {
	for _, nodes := range []int{100, 400, 1000} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := scenario.Build(scenario.Config{
					Seed: int64(i + 1), Nodes: nodes,
					FieldSide: 200 * float64(nodes) / 50, LossProb: 0.1,
				})
				w.RunEpochs(3)
				if c := w.Census(); c.Clusterheads == 0 {
					b.Fatal("no clusters formed")
				}
			}
		})
	}
}

// BenchmarkFDSEpoch measures the steady-state cost of one FDS execution
// across a 300-node field (kernel events + real time per epoch).
func BenchmarkFDSEpoch(b *testing.B) {
	w := scenario.Build(scenario.Config{Seed: 1, Nodes: 300, FieldSide: 800, LossProb: 0.1})
	w.RunEpochs(3) // formation settles
	startEvents := w.Kernel.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunEpochs(4 + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Kernel.Steps()-startEvents)/float64(b.N), "kernel-events/epoch")
}

// detectorSettleCap bounds the settle epochs benchDetectorEpoch runs past
// epoch 3 while it waits for an epoch that allocates nothing.
const detectorSettleCap = 16

// benchDetectorEpoch measures one flat detector's steady-state epoch cost on
// a dense 100-node field (everyone one hop apart, like the Ext. D study).
// It settles through epoch 3, then one epoch at a time until an epoch
// allocates nothing (at most detectorSettleCap more), so the timed epochs do
// not pay the pools' warm-up.
func benchDetectorEpoch(b *testing.B, stack scenario.Stack) {
	w := scenario.Build(scenario.Config{Seed: 1, Nodes: 100, FieldSide: 64, LossProb: 0.1, Stack: stack})
	epoch := 3
	w.RunEpochs(epoch)
	var before, after runtime.MemStats
	for range detectorSettleCap {
		runtime.ReadMemStats(&before)
		epoch++
		w.RunEpochs(epoch)
		runtime.ReadMemStats(&after)
		if after.Mallocs == before.Mallocs {
			break
		}
	}
	startEvents := w.Kernel.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		w.RunEpochs(epoch + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Kernel.Steps()-startEvents)/float64(b.N), "kernel-events/epoch")
}

// Per-detector epoch costs of the flat baselines; each is pinned in
// bench_baseline.json so an accidental allocation regression in a
// detector's hot path (tick, Handle) fails `make benchcmp`.
func BenchmarkFloodEpoch(b *testing.B)         { benchDetectorEpoch(b, scenario.StackFlood) }
func BenchmarkGossipEpoch(b *testing.B)        { benchDetectorEpoch(b, scenario.StackGossip) }
func BenchmarkSWIMEpoch(b *testing.B)          { benchDetectorEpoch(b, scenario.StackSWIM) }
func BenchmarkQueryResponseEpoch(b *testing.B) { benchDetectorEpoch(b, scenario.StackQueryResponse) }
func BenchmarkAllPairsEpoch(b *testing.B)      { benchDetectorEpoch(b, scenario.StackAllPairs) }

// BenchmarkFDSEpoch10k is BenchmarkFDSEpoch at 10,000 hosts on the per-host
// engine: one settle epoch outside the timer, then one steady-state epoch
// per iteration. It exists to anchor the sharded engine's numbers against
// the reference runtime at the same population; it is far too slow for the
// 20x gate invocation, so the Makefile runs it at -benchtime 1x (allocation
// counts stay deterministic — fixed seed, single-threaded kernel).
func BenchmarkFDSEpoch10k(b *testing.B) {
	w := scenario.Build(scenario.Config{Seed: 1, Nodes: 10000, FieldSide: 2000, LossProb: 0.1})
	w.RunEpochs(1)
	startEvents := w.Kernel.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunEpochs(2 + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Kernel.Steps()-startEvents)/float64(b.N), "kernel-events/epoch")
}

// BenchmarkFDSEpochParallel is the intra-replica parallelism speedup pair:
// a fixed 600-host, 8-epoch crash wave on the strip-partitioned engine
// (internal/par), run once per iteration at workers=1 and workers=4. The
// work is identical — the engine's results are bit-identical at every
// worker count (TestWorkerCountInvariance and the golden test pin the
// hash), asserted here via the message tallies — so on a >=4-core machine
// speedup = workers=1 ns/op ÷ workers=4 ns/op. On fewer cores the pair
// instead measures the coordination overhead of the idle worker pool.
// Tracing is off: the benchmark times the compute path, not trace-string
// formatting. The build runs outside the timer; only the epoch drain is
// measured.
func BenchmarkFDSEpochParallel(b *testing.B) {
	tallies := map[int][2]uint64{}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var sends, deliveries uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := par.Build(par.Config{
					Seed: 1, Nodes: 600, FieldSide: 1200, LossProb: 0.1,
					Workers: workers,
				})
				timing := cluster.DefaultTiming()
				e.CrashRandomAt(timing.EpochStart(3)+timing.Interval/2, 6)
				b.StartTimer()
				e.RunEpochs(8)
				b.StopTimer()
				sends, deliveries = e.Sends(), e.Deliveries()
				b.StartTimer()
			}
			b.StopTimer()
			tallies[workers] = [2]uint64{sends, deliveries}
			b.ReportMetric(float64(workers), "workers")
		})
	}
	if tallies[1] != tallies[4] {
		b.Fatalf("tallies diverged: workers=1 %v workers=4 %v", tallies[1], tallies[4])
	}
}

// BenchmarkShardedEpoch measures the sharded engine (internal/shard) on the
// same 10,000-host field: build + one full epoch per iteration, 4 shards,
// workers=1 so the drain runs serially and allocs/op stays deterministic.
// Compare events/sec against BenchmarkFDSEpoch10k's kernel-events/epoch to
// see what the SoA engine buys at scale.
func BenchmarkShardedEpoch(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		cfg := scenario.ShardedCrashWave(
			scenario.Config{Seed: 1, Nodes: 10000, FieldSide: 2000, LossProb: 0.1},
			4, 1, 1, 0, 0)
		e := shard.Build(cfg)
		t0 := time.Now()
		res := e.Run()
		elapsed += time.Since(t0)
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/epoch")
	b.ReportMetric(float64(events)/elapsed.Seconds(), "events/sec")
}

// BenchmarkCodec measures the wire codec round trip for the largest
// realistic message (a 100-member digest).
func BenchmarkCodec(b *testing.B) {
	heard := make([]wire.NodeID, 100)
	for i := range heard {
		heard[i] = wire.NodeID(i + 1)
	}
	msg := &wire.Digest{NID: 1, CH: 2, Epoch: 7, Heard: heard}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := wire.Encode(msg)
		if _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecEncodeAppend measures the zero-allocation encode path the
// radio hot path uses: one reusable buffer across messages.
func BenchmarkCodecEncodeAppend(b *testing.B) {
	heard := make([]wire.NodeID, 100)
	for i := range heard {
		heard[i] = wire.NodeID(i + 1)
	}
	msg := &wire.Digest{NID: 1, CH: 2, Epoch: 7, Heard: heard}
	buf := make([]byte, 0, msg.WireSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.EncodeAppend(buf[:0], msg)
	}
	_ = buf
}

// BenchmarkRadioBroadcast measures medium throughput: one broadcast into a
// 50-neighbor cell, including delivery scheduling and decoding.
func BenchmarkRadioBroadcast(b *testing.B) {
	k := sim.New(1)
	m := radio.New(k, radio.Defaults(0.1))
	center := geo.Point{X: 0, Y: 0}
	hosts := make([]*benchReceiver, 51)
	for i := range hosts {
		pos := geo.UniformInDisk(k.Rand(), center, 90)
		if i == 0 {
			pos = center
		}
		hosts[i] = &benchReceiver{id: wire.NodeID(i + 1), pos: pos}
		m.Attach(hosts[i])
	}
	msg := &wire.Heartbeat{NID: 1, Epoch: 1}
	// Broadcasts before the clock starts: the pooled transmission, the
	// kernel's event block and its sort scratch are made once per medium, and
	// the medium's payload and item blocks fill and are first released over
	// a few hundred broadcasts (a payload block holds ~300 heartbeats). At
	// -benchtime 20x they would otherwise be most of the B/op the gate reads.
	for i := 0; i < 1000; i++ {
		m.Send(1, msg)
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(1, msg)
		k.Run()
	}
}

// BenchmarkRadioBroadcastMetrics is BenchmarkRadioBroadcast with a live
// metrics registry attached to the medium. The instrumented counters are
// resolved once and incremented atomically, so this must report the same
// allocs/op as the uninstrumented benchmark (0 added allocations).
func BenchmarkRadioBroadcastMetrics(b *testing.B) {
	k := sim.New(1)
	reg := metrics.NewRegistry()
	m := radio.New(k, radio.Defaults(0.1), radio.WithMetrics(reg))
	center := geo.Point{X: 0, Y: 0}
	hosts := make([]*benchReceiver, 51)
	for i := range hosts {
		pos := geo.UniformInDisk(k.Rand(), center, 90)
		if i == 0 {
			pos = center
		}
		hosts[i] = &benchReceiver{id: wire.NodeID(i + 1), pos: pos}
		m.Attach(hosts[i])
	}
	msg := &wire.Heartbeat{NID: 1, Epoch: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(1, msg)
		k.Run()
	}
	b.StopTimer()
	if sent := m.Sent(wire.KindHeartbeat); sent != int64(b.N) {
		b.Fatalf("tx:heartbeat counter = %d, want %d", sent, b.N)
	}
}

// BenchmarkNeighborsQuery measures the scratch-slice neighborhood query
// (allocation-free once the buffer is warm) against a 50-neighbor cell.
func BenchmarkNeighborsQuery(b *testing.B) {
	k := sim.New(1)
	m := radio.New(k, radio.Defaults(0.1))
	center := geo.Point{X: 0, Y: 0}
	for i := 0; i < 51; i++ {
		pos := geo.UniformInDisk(k.Rand(), center, 90)
		if i == 0 {
			pos = center
		}
		m.Attach(&benchReceiver{id: wire.NodeID(i + 1), pos: pos})
	}
	buf := make([]wire.NodeID, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.NeighborsAppend(buf[:0], center, 1)
	}
	_ = buf
}

// benchReceiver is a no-op radio endpoint for throughput benchmarks.
type benchReceiver struct {
	id  wire.NodeID
	pos geo.Point
}

func (r *benchReceiver) ID() wire.NodeID                          { return r.id }
func (r *benchReceiver) Pos() geo.Point                           { return r.pos }
func (r *benchReceiver) Operational() bool                        { return true }
func (r *benchReceiver) Deliver(m wire.Message, from wire.NodeID) {}

// BenchmarkAnalyticVsSimAgreement cross-checks, per iteration, that the
// closed form and the paper's double sum agree at a random point — a
// micro-fidelity watchdog that also exercises the binomial machinery.
func BenchmarkAnalyticVsSimAgreement(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		n := 3 + rng.Intn(100)
		p := rng.Float64()
		closed := analysis.FalseDetection(n, p)
		sum := analysis.FalseDetectionPaperSum(n, p)
		diff := closed - sum
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(closed+sum+1e-300) && diff > 1e-15 {
			b.Fatalf("closed form and paper sum diverge at N=%d p=%v: %v vs %v", n, p, closed, sum)
		}
	}
}

// BenchmarkTimingHelpers keeps the epoch arithmetic on the profile radar.
func BenchmarkTimingHelpers(b *testing.B) {
	t := cluster.DefaultTiming()
	var sink sim.Time
	for i := 0; i < b.N; i++ {
		sink += t.EpochStart(wire.Epoch(i % 1000))
	}
	_ = sink
}

// --- Ext. F: aggregation message sharing (paper Section 6) --------------------

// BenchmarkAggregation measures the in-network aggregation service: the
// extra transmissions it costs per epoch (the paper's "message sharing"
// claim: readings ride the FDS digests, so only one partial broadcast per
// cluster plus backbone relays) and the fraction of readings the global
// aggregate covers.
func BenchmarkAggregation(b *testing.B) {
	var extraMsgs, coverage float64
	for i := 0; i < b.N; i++ {
		w := scenario.Build(scenario.Config{
			Seed: int64(i + 1), Nodes: 80, FieldSide: 350,
			AggregateSampler: func(id wire.NodeID, e wire.Epoch) (float64, bool) {
				return float64(id), true
			},
		})
		w.RunEpochs(8)
		extraMsgs += float64(w.Medium.Sent(wire.KindAggregate)) / 8
		var ch wire.NodeID
		for _, id := range w.NodeIDs() {
			if w.Cluster(id).View().IsCH {
				ch = id
				break
			}
		}
		best := uint32(0)
		for e := wire.Epoch(4); e <= 7; e++ {
			if g, _ := w.Aggregate(ch).Global(e); g.Count > best {
				best = g.Count
			}
		}
		coverage += float64(best) / 80
	}
	n := float64(b.N)
	b.ReportMetric(extraMsgs/n, "aggregate-msgs/epoch")
	b.ReportMetric(coverage/n, "reading-coverage")
}

// --- Ext. G: sleep-mode power management (paper Section 6) --------------------

// BenchmarkSleep quantifies duty cycling: energy saved versus the always-on
// fleet, and the false-detection damage of naive (unannounced) sleeping
// versus the sleep-aware FDS.
func BenchmarkSleep(b *testing.B) {
	run := func(b *testing.B, mode string) (energy float64, falseSusp float64) {
		for i := 0; i < b.N; i++ {
			cfg := scenario.Config{Seed: int64(i + 1), Nodes: 60, FieldSide: 300}
			if mode != "awake" {
				scfg := sleep.DefaultConfig()
				scfg.Announce = mode == "announced"
				cfg.Sleep = &scfg
			}
			w := scenario.Build(cfg)
			w.RunEpochs(12)
			energy += w.TotalEnergySpent()
			falseSusp += float64(len(w.FalseSuspicions()))
		}
		n := float64(b.N)
		return energy / n, falseSusp / n
	}
	b.Run("always-awake", func(b *testing.B) {
		e, f := run(b, "awake")
		b.ReportMetric(e, "energy/run")
		b.ReportMetric(f, "false-suspicion-pairs")
	})
	b.Run("announced-sleep", func(b *testing.B) {
		e, f := run(b, "announced")
		b.ReportMetric(e, "energy/run")
		b.ReportMetric(f, "false-suspicion-pairs")
	})
	b.Run("naive-sleep", func(b *testing.B) {
		e, f := run(b, "naive")
		b.ReportMetric(e, "energy/run")
		b.ReportMetric(f, "false-suspicion-pairs")
	})
}
