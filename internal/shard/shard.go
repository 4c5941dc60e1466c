// Package shard is the large-scale simulation engine: a conservatively
// synchronized, spatially sharded discrete-event kernel that runs the
// paper's clustered failure detection service over fields of 10^5–10^6
// hosts, where the single-heap sim.Kernel and per-host object graph of
// internal/node cannot fit or keep up.
//
// # Architecture
//
// The field is cut into K vertical strips of cluster-cell columns. Each
// shard owns the hosts of its strip: their event queue, their struct-of-array
// state, and every event that touches them. Cluster cells have side R/√2
// (all in-cell pairs are within radio range R), and because strips are whole
// columns of cells, a cluster never spans shards — all round traffic
// (heartbeats, digests, health updates) is shard-local. Only epidemic
// failure-report relays, which travel up to R, cross strip boundaries.
//
// Shards advance in lockstep conservative windows of width W = MinDelay,
// the lower bound on message delivery latency. (ROADMAP item 1 speaks of
// Thop as the bound; Thop = 20 ms is the paper's upper bound on one-hop
// delay — the sound lookahead for a conservative engine is the LOWER bound,
// radio MinDelay = 1 ms, and that is what the engine uses.) An event
// processed at time t inside window [t0, t0+W) can only schedule into
// another shard via a delivery, which lands at t+delay ≥ t+MinDelay ≥
// t0+W — strictly after the window. Shards therefore process a window in
// parallel with no communication, and cross-shard sends are batched into
// per-(src,dst) outboxes merged at the window barrier. The loop itself —
// jump to the earliest event, drain the shards on a worker pool, run the
// barrier — is sim.RunWindows, shared with internal/par.
//
// # Determinism at every shard and worker count
//
// The engine's contract is the repository-wide golden-trace discipline:
// results are a pure function of Config, bit-identical for every Shards and
// Workers value. That holds by construction:
//
//   - Events are keyed (at, owner NodeID, seq), with seq drawn from the
//     owning host's private counter at creation time — never from a
//     kernel-local tie-break, which would vary with the partition. Queues
//     pop in key order, so a shard's processing order for any one host's
//     events is partition-independent.
//   - Every random draw comes from the consuming host's private sim.Stream
//     (8 bytes of SplitMix64 state), advanced only by that host's own
//     events. Senders draw loss and delay for every static roster
//     neighbor regardless of the neighbor's aliveness — aliveness is
//     checked at arrival in the receiver's shard — so stream consumption
//     never depends on remote state.
//   - Control events (epoch ticks, crashes) have owner 0 and touch only
//     disjoint shard-local state, so their shard-local seq is harmless.
//   - The trace hash is a multiset hash: each shard sums a 64-bit mix of every
//     record it processes as it drains, and the shard sums are added after the
//     run. Addition commutes, so neither the partition nor the order within a
//     window can show in it; record keys are unique, so two runs have the same
//     multiset of records exactly when their key-sorted traces are equal, and
//     an ordered fold would tell apart nothing more.
//   - Outboxes merge in (dst shard, src shard) order.
//   - Energy totals and the state hash are folded serially in host-index
//     order after the run (float addition is not associative).
//
// # Protocol model
//
// The engine runs a compact, static-topology rendering of the paper's
// service (the full-fidelity per-host runtime remains internal/node):
// clusters are grid cells, the clusterhead is the lowest live NID per cell,
// and each epoch executes heartbeat (fds.R-1), digest (fds.R-2), and
// CH detection + health update (fds.R-3), with deputy takeover at
// R3End+Thop and network-wide epidemic relay of failure reports. Message
// byte counts follow internal/wire's WireSize formulas exactly (pinned by
// test). Mobility and duty-cycling are out of scope here.
package shard

import (
	"fmt"
	"math"
	"sort"

	"clusterfds/internal/cluster"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Crash schedules a fail-stop of one host.
type Crash struct {
	ID wire.NodeID
	At sim.Time
}

// Config describes a sharded run. Results are a pure function of every
// field except Workers (which changes wall-clock only).
type Config struct {
	// Seed drives all randomness: placement and per-host streams.
	Seed int64
	// N is the host population, numbered 1..N.
	N int
	// Side is the deployment square's edge length in meters.
	Side float64
	// Shards is the requested strip count K; it is clamped to the number
	// of cell columns. Values < 1 mean 1.
	Shards int
	// Workers is the pool draining shards within a window; < 1 means 1.
	// Any value produces bit-identical results.
	Workers int
	// Epochs is how many heartbeat intervals to simulate; the run stops at
	// EpochStart(Epochs), exactly like the legacy scenarios.
	Epochs int
	// Timing is the protocol schedule (Thop, φ).
	Timing cluster.Timing
	// Radio is the propagation and energy model. Range must be > 0 and
	// MinDelay > 0 (it is the conservative window width).
	Radio radio.Params
	// Crashes lists the fail-stop schedule. Crashed hosts stop sending and
	// receiving; detection metrics are tracked per victim.
	Crashes []Crash
	// Progress, when non-nil, is called from the serial barrier every
	// progressEvery windows with the simulated instant and the cumulative
	// event count, so long runs can report liveness. It has no effect on
	// the simulation or its hashes.
	Progress func(at sim.Time, events uint64)
}

// progressEvery is the Progress callback period in windows.
const progressEvery = 500

// victim is the metrics record for one scheduled crash.
type victim struct {
	idx     uint32 // host index
	at      sim.Time
	detect  sim.Time // first cell-level detection; -1 if never
	crashed bool     // At was within the simulated horizon
}

// shardState is the per-shard mutable world: queue, outboxes, counters, and
// scratch. Host state lives in the Engine's SoA arrays; a shard only ever
// touches rows it owns, which is what makes window parallelism race-free.
type shardState struct {
	queue   evQueue
	ctrlSeq uint32 // seq counter for owner-0 control events

	// arena holds victim-slot payloads referenced by in-flight report and
	// health events via (off, n). It is reset whenever the queue drains.
	arena []uint32

	// out[d] accumulates this window's cross-shard sends to shard d; its
	// payloads are copied into d's arena at the barrier.
	out []outbox

	// traceSum is the shard's share of Result.TraceHash: the wrapping sum of
	// recMix over every send and delivery it has processed.
	traceSum uint64

	// dstOff is radio-broadcast scratch: per destination shard, the offset
	// of the current send's payload in that outbox (-1 = not yet copied).
	dstOff []int32

	c counters
}

// outbox is one (src,dst) batch: fixed-size events plus a payload arena the
// events reference, so a batch is two appends and no per-send allocation.
type outbox struct {
	evs     []ev
	payload []uint32
}

// counters are per-shard tallies, summed (exactly — they are integers) into
// the Result after the run.
type counters struct {
	events     uint64 // host-owned events processed
	sends      uint64
	deliveries uint64
	dropLoss   uint64 // loss draws that failed at send time
	dropDead   uint64 // deliveries to already-crashed hosts
	txBytes    uint64
	rxBytes    uint64
	falsePos   uint64 // detections of hosts that never crashed
	rescues    uint64 // false detections withdrawn on later evidence
}

func (c *counters) add(o *counters) {
	c.events += o.events
	c.sends += o.sends
	c.deliveries += o.deliveries
	c.dropLoss += o.dropLoss
	c.dropDead += o.dropDead
	c.txBytes += o.txBytes
	c.rxBytes += o.rxBytes
	c.falsePos += o.falsePos
	c.rescues += o.rescues
}

// Engine is a built, runnable sharded world. Build constructs it; Run
// executes it once. An Engine is single-use.
type Engine struct {
	cfg Config

	// Geometry: cells of side R/√2 in a cols×rows grid; shard s owns cell
	// columns [colStart[s], colStart[s+1]).
	cellSide   float64
	cols, rows int
	nShards    int
	colStart   []int32
	shardOfCol []int32
	reach      int // cell radius covering radio range: ceil(R/cellSide)

	// Struct-of-arrays host state, indexed by idx = NodeID-1. Flat arrays
	// instead of per-host objects: a host costs ~90 bytes plus its share
	// of the evidence arenas, against several KB for a node.Host graph.
	posX, posY []float64
	cellOf     []int32
	memberPos  []uint32 // index within the cell roster (evidence bit position)
	rng        []sim.Stream
	seq        []uint32
	energy     []float64
	crashed    []bool
	healthSeen []bool // received this epoch's health update
	relayPend  []bool // an ekRelay is scheduled and pending

	// Cell CSR: byCell lists host idxs sorted by (cell, idx);
	// cellStart[c]..cellStart[c+1] spans cell c's roster.
	cellStart []int32
	byCell    []uint32

	// Per-cell, per-epoch leadership (lowest / second-lowest live NID),
	// recomputed by the owning shard at each epoch tick.
	cellCH     []int32 // host idx, -1 when the cell is empty
	cellDeputy []int32

	// Evidence arenas: evWords 64-bit words per host, bit b = roster
	// position b of the host's own cell.
	evWords    int
	heard      []uint64 // heartbeats heard this epoch (own bit set at send)
	alive      []uint64 // union of roster bits listed alive in digests
	cellFailed []uint64 // persistent believed-failed set for the cell

	// Victim-slot arenas: vWords words per host over the static victim
	// table; known = victims this host has learned of, pending = learned
	// but not yet relayed.
	vWords  int
	known   []uint64
	pending []uint64

	victims    []victim
	victimSlot map[uint32]int32 // host idx -> slot

	shards []shardState

	windows int // busy windows closed so far, for Progress cadence
	horizon sim.Time
	w       sim.Time // conservative window width = Radio.MinDelay

	builtHeapBytes uint64 // live heap after Build, for bytes-per-node
}

// Build validates cfg, lays out the field, and schedules the initial
// control events. It is strictly serial; Run does the parallel part.
func Build(cfg Config) *Engine {
	if cfg.N <= 0 {
		panic("shard: N must be positive")
	}
	if cfg.Side <= 0 {
		panic("shard: Side must be positive")
	}
	if cfg.Epochs <= 0 {
		panic("shard: Epochs must be positive")
	}
	if !cfg.Timing.Valid() {
		panic("shard: invalid Timing")
	}
	if cfg.Radio.Range <= 0 || cfg.Radio.MinDelay <= 0 || cfg.Radio.MaxDelay < cfg.Radio.MinDelay {
		panic("shard: invalid Radio params (need Range > 0, 0 < MinDelay <= MaxDelay)")
	}
	if cfg.Radio.LossProb < 0 || cfg.Radio.LossProb > 1 {
		panic(fmt.Sprintf("shard: loss probability %v outside [0,1]", cfg.Radio.LossProb))
	}
	if len(cfg.Crashes) > math.MaxUint16 {
		panic(fmt.Sprintf("shard: %d crashes scheduled, an event's payload counts at most %d victim slots", len(cfg.Crashes), math.MaxUint16))
	}

	e := &Engine{cfg: cfg}
	e.w = cfg.Radio.MinDelay
	e.horizon = cfg.Timing.EpochStart(wire.Epoch(cfg.Epochs))

	// Cells of side R/√2: any two hosts in one cell are within R, so a
	// cell is a valid cluster by construction (paper §2.1's connectivity
	// requirement).
	e.cellSide = cfg.Radio.Range / math.Sqrt2
	e.cols = int(math.Ceil(cfg.Side / e.cellSide))
	if e.cols < 1 {
		e.cols = 1
	}
	e.rows = e.cols
	e.reach = int(math.Ceil(cfg.Radio.Range / e.cellSide))

	k := cfg.Shards
	if k < 1 {
		k = 1
	}
	if k > e.cols {
		k = e.cols // a strip must hold at least one column
	}
	e.nShards = k
	e.colStart = make([]int32, k+1)
	for s := 0; s <= k; s++ {
		e.colStart[s] = int32(s * e.cols / k)
	}
	e.shardOfCol = make([]int32, e.cols)
	for s := 0; s < k; s++ {
		for c := e.colStart[s]; c < e.colStart[s+1]; c++ {
			e.shardOfCol[c] = int32(s)
		}
	}

	n := cfg.N
	e.posX = make([]float64, n)
	e.posY = make([]float64, n)
	e.cellOf = make([]int32, n)
	e.memberPos = make([]uint32, n)
	e.rng = make([]sim.Stream, n)
	e.seq = make([]uint32, n)
	e.energy = make([]float64, n)
	e.crashed = make([]bool, n)
	e.healthSeen = make([]bool, n)
	e.relayPend = make([]bool, n)

	// Placement comes from a dedicated stream, one (x, y) pair per host in
	// id order — a pure function of Seed, independent of K.
	place := sim.NewStream(sim.SplitMix64(uint64(cfg.Seed)) ^ 0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		e.posX[i] = place.Float64() * cfg.Side
		e.posY[i] = place.Float64() * cfg.Side
		e.cellOf[i] = e.cellAt(e.posX[i], e.posY[i])
		e.rng[i] = sim.NewStream(sim.SplitMix64(uint64(cfg.Seed)) + uint64(i) + 1)
		e.energy[i] = cfg.Radio.InitialEnergy
	}

	// Cell CSR by counting sort; rosters come out in ascending host idx,
	// which doubles as ascending NID — the CH election order.
	nCells := e.cols * e.rows
	e.cellStart = make([]int32, nCells+1)
	for i := 0; i < n; i++ {
		e.cellStart[e.cellOf[i]+1]++
	}
	maxRoster := int32(0)
	for c := 0; c < nCells; c++ {
		if e.cellStart[c+1] > maxRoster {
			maxRoster = e.cellStart[c+1]
		}
		e.cellStart[c+1] += e.cellStart[c]
	}
	e.byCell = make([]uint32, n)
	fill := make([]int32, nCells)
	for i := 0; i < n; i++ {
		c := e.cellOf[i]
		pos := e.cellStart[c] + fill[c]
		e.byCell[pos] = uint32(i)
		e.memberPos[i] = uint32(fill[c])
		fill[c]++
	}
	e.cellCH = make([]int32, nCells)
	e.cellDeputy = make([]int32, nCells)

	e.evWords = (int(maxRoster) + 63) / 64
	if e.evWords == 0 {
		e.evWords = 1
	}
	e.heard = make([]uint64, n*e.evWords)
	e.alive = make([]uint64, n*e.evWords)
	e.cellFailed = make([]uint64, n*e.evWords)

	// Victim table: sorted by (At, ID) so slot numbering is canonical.
	crashes := append([]Crash(nil), cfg.Crashes...)
	sort.Slice(crashes, func(a, b int) bool {
		if crashes[a].At != crashes[b].At {
			return crashes[a].At < crashes[b].At
		}
		return crashes[a].ID < crashes[b].ID
	})
	e.victimSlot = make(map[uint32]int32, len(crashes))
	for _, cr := range crashes {
		if cr.ID < 1 || int(cr.ID) > n {
			panic(fmt.Sprintf("shard: crash of unknown host %d", cr.ID))
		}
		idx := uint32(cr.ID - 1)
		if _, dup := e.victimSlot[idx]; dup {
			panic(fmt.Sprintf("shard: host %d crashed twice", cr.ID))
		}
		e.victimSlot[idx] = int32(len(e.victims))
		e.victims = append(e.victims, victim{idx: idx, at: cr.At, detect: -1})
	}
	e.vWords = (len(e.victims) + 63) / 64
	if e.vWords == 0 {
		e.vWords = 1
	}
	e.known = make([]uint64, n*e.vWords)
	e.pending = make([]uint64, n*e.vWords)

	// Shards: queues seeded with the epoch ticks and crash events.
	e.shards = make([]shardState, k)
	for s := range e.shards {
		e.shards[s].out = make([]outbox, k)
		e.shards[s].queue.init(cfg.Radio.MinDelay, cfg.Radio.MaxDelay)
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		at := cfg.Timing.EpochStart(wire.Epoch(ep))
		for s := 0; s < k; s++ {
			sh := &e.shards[s]
			sh.queue.push(ev{at: at, owner: 0, seq: sh.ctrlSeq, kind: ekEpoch, aux: uint32(ep)})
			sh.ctrlSeq++
		}
	}
	for slot, v := range e.victims {
		if v.at >= e.horizon {
			continue
		}
		s := e.shardOf(v.idx)
		sh := &e.shards[s]
		sh.queue.push(ev{at: v.at, owner: 0, seq: sh.ctrlSeq, kind: ekCrash, aux: uint32(slot)})
		sh.ctrlSeq++
	}

	e.builtHeapBytes = liveHeapBytes()
	return e
}

// cellAt maps a coordinate to its cell index, clamping the boundary so a
// host placed exactly at Side stays in the last cell.
func (e *Engine) cellAt(x, y float64) int32 {
	c := int(x / e.cellSide)
	if c >= e.cols {
		c = e.cols - 1
	}
	r := int(y / e.cellSide)
	if r >= e.rows {
		r = e.rows - 1
	}
	return int32(c*e.rows + r)
}

func (e *Engine) shardOf(idx uint32) int32 {
	return e.shardOfCol[int(e.cellOf[idx])/e.rows]
}

// roster returns cell c's member idxs in ascending NID order.
func (e *Engine) roster(c int32) []uint32 {
	return e.byCell[e.cellStart[c]:e.cellStart[c+1]]
}
