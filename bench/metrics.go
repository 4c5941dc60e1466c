package main

// metricDef declares one metric the way BENCHMARK.json lists it. The test
// suite pins these tables against that file, so neither can drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound (end-to-end only) is the worsening, as a share of the parent's
	// median, a driver tolerates between two commits: BENCHMARK.json's bound.
	// -check holds two sets of the same code to checkBound instead.
	Bound float64
	// Universal (end-to-end only) marks the metrics every workload reports
	// and that are never 0. BENCHMARK.json can list only those under
	// end_to_end, because a driver asks every workload for every one of
	// them; the rest are listed under per_layer, by the same name.
	Universal bool
}

// endToEnd are the eleven end-to-end metrics, taken from the untraced
// repetitions only. The host-time ones are reported as the median over the
// repetitions; the simulated ones repeat exactly for a seed. An engine whose
// public surface does not expose a simulated statistic omits it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Universal: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Universal: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Universal: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02, Universal: true},
	{Name: "completeness", Unit: "ratio", Better: "higher", Bound: 0.01, Universal: true},
	{Name: "detect_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "detect_latency_p95_s", Unit: "s", Better: "lower"},
	{Name: "false_suspicion_pairs", Unit: "count", Better: "lower"},
	{Name: "tx_msgs_per_host_epoch", Unit: "count", Better: "lower"},
	{Name: "tx_bytes_per_host_epoch", Unit: "B", Better: "lower"},
	{Name: "energy_per_host_epoch", Unit: "units", Better: "lower"},
}

// checkBound is how far an end-to-end metric may differ between two sets of
// runs of the same code and seed on one host (-check), with the absolute
// floor under which a difference never counts. Simulated statistics must
// repeat exactly.
func checkBound(name string, w workload) (bound, floor float64) {
	switch name {
	case "setup_s":
		return 0.15, 0.02
	case "wall_s":
		if w.eng == engPar || w.eng == engShard {
			return 0.10, 0
		}
		return 0.05, 0
	case "peak_rss_mb":
		return 0.10, 0
	case "alloc_mb":
		return 0.02, 0
	}
	return 0, 0
}

// perLayer are the metrics of single layers, from the traced pass and the
// micro-benchmarks. A layer a workload does not exercise reports 0: that
// layer did no work there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// How many (victim, observer) pairs the latency percentiles cover.
	add("count", "higher", "detect_latency_n")
	add("ratio", "lower", "trace.overhead_ratio")

	// Serial-world spans and counters.
	add("count", "lower", "sim.events")
	add("ns", "lower", "sim.ns_per_event")
	add("s", "lower", "sim.residual_s")
	add("ratio", "lower", "sim.residual_share")
	add("count", "lower", "radio.send_calls")
	add("s", "lower", "radio.send_s")
	add("ratio", "lower", "radio.rx_per_tx")
	add("count", "lower", "radio.drop_loss")
	for _, k := range radioKinds {
		add("count", "lower", "radio.tx."+k, "radio.rx."+k)
	}
	add("count", "lower", "node.deliver_calls")
	add("s", "lower", "node.deliver_self_s")
	for _, l := range []string{"cluster", "fds", "intercluster", "baseline"} {
		add("count", "lower", l+".handle_calls")
		add("s", "lower", l+".handle_s", l+".timer_s")
	}
	add("ratio", "lower", "intercluster.report_tx_share")
	add("count", "lower", "intercluster.report_tx_per_failure_per_ch")

	// Strip engine.
	add("s", "lower", "par.build_s")
	add("count", "lower", "par.strips", "par.sends", "par.deliveries")
	add("s", "lower", "par.run_s_w1")
	add("ratio", "higher", "par.speedup")
	add("ratio", "lower", "par.vs_serial_w1")

	// Struct-of-arrays engine.
	add("s", "lower", "shard.build_s")
	add("MB", "lower", "shard.build_heap_mb")
	add("count", "lower", "shard.events")
	add("1/s", "higher", "shard.events_per_s")
	add("count", "lower", "shard.sends", "shard.deliveries", "shard.drop_loss")
	add("s", "lower", "shard.run_s_w1")
	add("ratio", "higher", "shard.speedup")

	// Live path.
	add("s", "lower", "daemon.poll_s", "daemon.advance_s")
	add("count", "lower", "daemon.kernel_events", "transport.broadcast_calls")
	add("s", "lower", "transport.broadcast_s")
	add("B", "lower", "transport.tx_bytes")
	add("count", "lower", "transport.bad_datagrams")

	// Micro-benchmarks.
	add("ns", "lower", "sim.push_pop_ns.1e3", "sim.push_pop_ns.1e5", "sim.cancel_ns",
		"radio.bcast_ns_per_rx.deg10", "radio.bcast_ns_per_rx.deg50", "radio.neighbors_ns.deg50")
	for _, m := range []string{"heartbeat", "digest100", "failure-report"} {
		add("ns", "lower", "wire.encode_ns."+m, "wire.decode_ns."+m)
	}
	return defs
}

// layerMetrics is what BENCHMARK.json lists under per_layer: the end-to-end
// metrics that are not universal, then the per-layer metrics.
func layerMetrics() []metricDef {
	var defs []metricDef
	for _, d := range endToEnd {
		if !d.Universal {
			defs = append(defs, d)
		}
	}
	return append(defs, perLayer...)
}
