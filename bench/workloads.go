package main

import (
	"runtime"

	"clusterfds/internal/scenario"
)

// lossProb is the per-receiver loss probability p every workload runs at.
const lossProb = 0.1

// engine names the simulator (or live path) a workload drives.
type engine int

const (
	engWorld engine = iota // scenario.Build: the serial per-host world
	engPar                 // par.Build: the strip engine
	engShard               // shard.Build: the struct-of-arrays engine
	engMesh                // daemon.Daemon fleet on one transport.ChanMesh
)

// workload is one closed, fixed-work run: a field, an engine, an epoch count
// and a crash wave. Sizes are frozen here and named in BENCHMARK.json.
type workload struct {
	name string
	why  string
	eng  engine
	// stack is the detector stack (engWorld only).
	stack scenario.Stack
	// hosts is the population (daemons for engMesh); side the field edge in
	// meters (unused by engMesh, which has no geometry).
	hosts int
	side  float64
	// epochs is the number of heartbeat intervals drained; crashes hosts
	// fail-stop at the midpoint of crashEpoch.
	epochs     int
	crashes    int
	crashEpoch int
	// shards is the spatial partition count (engShard only).
	shards int
}

// workloads is the benchmark's workload set, in reporting order. Epoch
// counts are sized so that one repetition takes 2-4.5 s on the reference host
// and three fit a driver's 10 s run (see README.md § Workloads).
var workloads = []workload{
	{
		name: "field600", eng: engWorld, stack: scenario.StackClusterFDS,
		hosts: 600, side: 1200, epochs: 8, crashes: 6, crashEpoch: 3,
		why: "ROADMAP reference field, ~92 clusters: most transmissions are failure-report, so the inter-cluster forwarder does most of the work",
	},
	{
		name: "dense300", eng: engWorld, stack: scenario.StackClusterFDS,
		hosts: 300, side: 200, epochs: 28, crashes: 4, crashEpoch: 4,
		why: "6 dense clusters, failure-report ~15% of tx and intercluster ~10% of CPU: intra-cluster rounds (cluster, fds, heap, radio) dominate; a forwarder fix must not move it",
	},
	{
		name: "flood100", eng: engWorld, stack: scenario.StackFlood,
		hosts: 100, side: 64, epochs: 13, crashes: 3, crashEpoch: 4,
		why: "flat flood detector, everyone in range: same sim+radio with tiny messages and maximal fan-out, so heap pop and radio dominate",
	},
	{
		name: "strips600", eng: engPar,
		hosts: 600, side: 1200, epochs: 8, crashes: 6, crashEpoch: 3,
		why: "the strip engine on real cores over field600's field: shared protocol stack shows on both, window/barrier/outbox code only here",
	},
	{
		name: "shard10k", eng: engShard,
		hosts: 10000, side: 2000, epochs: 3, crashes: 25, crashEpoch: 1, shards: 4,
		why: "the struct-of-arrays engine at 10k hosts: shares no protocol code with the others, so it moves only for shard changes",
	},
	{
		name: "mesh160", eng: engMesh,
		hosts: 160, epochs: 80, crashes: 2, crashEpoch: 3,
		why: "160 live daemons on one channel mesh with real bytes: wire decode, transport broadcast and fds dominate; one cluster, no forwarding",
	},
}

// workloadByName returns the named workload of set.
func workloadByName(set []workload, name string) (workload, bool) {
	for _, w := range set {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// parallelWorkers is the worker count of the two parallel workloads:
// min(nproc, 4). Nothing else in the benchmark spawns threads.
func parallelWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}
