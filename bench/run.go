package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"clusterfds/internal/baseline"
	"clusterfds/internal/cluster"
	"clusterfds/internal/daemon"
	"clusterfds/internal/node"
	"clusterfds/internal/par"
	"clusterfds/internal/scenario"
	"clusterfds/internal/shard"
	"clusterfds/internal/sim"
	"clusterfds/internal/stats"
	"clusterfds/internal/transport"
	"clusterfds/internal/wire"
)

// runOpts selects how one child executes its workload.
type runOpts struct {
	seed    int64
	workers int  // parallel workloads only
	traced  bool // spans (world, mesh) or engine trace collection (par)
	// setupOnly stops the child once it is ready to drain: one more sample
	// of set-up time, at the cost of a few milliseconds.
	setupOnly bool
	// start is when the parent launched this child; setup_s counts from it.
	start time.Time
}

// result is what one child measured: host-time figures, the simulated
// statistics its engine's public surface exposes, and per-layer numbers.
// Simulated fields an engine does not expose stay absent from Sim (they are
// omitted, not zeroed).
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Traced   bool   `json:"traced"`

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Events is the engine's own count of simulated work: kernel steps
	// (world, mesh), shard.Result.Events, or sends + deliveries for par,
	// whose public surface exposes no step count.
	Events uint64 `json:"events"`
	Hosts  int    `json:"hosts"`
	Epochs int    `json:"epochs"`

	// Detection outcome. Pairs counts the required detections — (victim,
	// operational observer) pairs, the benchmark's operations — and
	// PairsAware those where the observer knows of the victim at the end of
	// the run. Unseen counts the victims no observer detected at all.
	Pairs      int `json:"pairs"`
	PairsAware int `json:"pairs_aware"`
	Unseen     int `json:"unseen_victims"`

	// Sim holds the simulated statistics by metric name.
	Sim map[string]float64 `json:"sim"`
	// Fingerprint hashes the simulated outcome (counters and final
	// suspicion state); equal seeds must give equal fingerprints.
	Fingerprint string `json:"fingerprint"`
	// TraceHash is par's own determinism hash, available only when the
	// engine collected its trace. (shard's two hashes are its Fingerprint.)
	TraceHash string `json:"trace_hash,omitempty"`

	// Layer holds per-layer metrics by name; Spans the folded span table
	// (traced runs only).
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []spanRow          `json:"spans,omitempty"`
}

// addVictim accounts one victim: aware of operational observers know of it.
func (r *result) addVictim(aware, operational int) {
	if aware == 0 {
		r.Unseen++
	}
	r.Pairs += operational
	r.PairsAware += aware
}

// prepared is a built workload: drain is the timed region — the engine's
// drain call and nothing else — and collect reads the outcome afterwards.
type prepared struct {
	drain   func()
	collect func(r *result)
}

// runWorkload executes one workload once in this process. Everything from
// o.start to the drain call is set-up.
func runWorkload(w workload, o runOpts) (*result, error) {
	r := &result{
		Workload: w.name, Seed: o.seed, Workers: 1, Traced: o.traced,
		Hosts: w.hosts, Epochs: w.epochs,
		Sim: map[string]float64{}, Layer: map[string]float64{},
	}
	var p prepared
	switch {
	case w.eng == engWorld && o.traced:
		p = prepareTracedWorld(w, o)
	case w.eng == engWorld:
		p = prepareWorld(w, o)
	case w.eng == engPar:
		p = preparePar(w, o, r)
	case w.eng == engShard:
		p = prepareShard(w, o, r)
	case w.eng == engMesh:
		p = prepareMesh(w, o)
	default:
		return nil, fmt.Errorf("workload %s: unknown engine", w.name)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	r.SetupS = t0.Sub(o.start).Seconds()
	if o.setupOnly {
		return r, nil
	}
	p.drain()
	r.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms)
	r.AllocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	p.collect(r)
	r.Sim["completeness"] = float64(r.PairsAware) / float64(max(1, r.Pairs))
	r.PeakRSSMB = peakRSSMB()
	return r, nil
}

// crashInstant is the midpoint of the workload's crash epoch.
func crashInstant(w workload, t cluster.Timing) sim.Time {
	return t.EpochStart(wire.Epoch(w.crashEpoch)) + t.Interval/2
}

// --- serial world ---------------------------------------------------------

// worldView is the read surface result collection needs; *scenario.World
// and the traced replica both provide it.
type worldView interface {
	NodeIDs() []wire.NodeID
	Host(id wire.NodeID) *node.Host
	Detector(id wire.NodeID) baseline.Detector
	MessageCounts() map[string]int64
	TotalEnergySpent() float64
}

func prepareWorld(w workload, o runOpts) prepared {
	world := scenario.Build(scenario.Config{
		Seed: o.seed, Nodes: w.hosts, FieldSide: w.side, LossProb: lossProb, Stack: w.stack,
	})
	victims := world.CrashRandomAt(crashInstant(w, world.Config().Timing), w.crashes)
	return prepared{
		drain: func() { world.RunEpochs(w.epochs) },
		collect: func(r *result) {
			r.Events = world.Kernel.Steps()
			collectWorld(world, victims, w, r)
			var lat []float64
			for _, vic := range victims {
				for _, l := range world.DetectionLatencies(vic) {
					lat = append(lat, time.Duration(l).Seconds())
				}
			}
			setLatencies(r, lat, true)
		},
	}
}

// collectWorld fills the simulated statistics both serial-world runs share.
func collectWorld(v worldView, victims []wire.NodeID, w workload, r *result) {
	ids := v.NodeIDs()
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}

	for _, vic := range victims {
		aware, operational := 0, 0
		for _, id := range ids {
			if id == vic || v.Host(id).Crashed() {
				continue
			}
			operational++
			if v.Detector(id).IsSuspected(vic) {
				aware++
			}
		}
		r.addVictim(aware, operational)
	}
	falsePairs := 0
	for _, obs := range ids {
		known := v.Detector(obs).KnownFailed()
		put(uint64(obs)<<32 | uint64(len(known)))
		for _, s := range known {
			put(uint64(s))
			if !v.Host(obs).Crashed() && !v.Host(s).Crashed() {
				falsePairs++
			}
		}
	}

	counts := v.MessageCounts()
	names := make([]string, 0, len(counts))
	var tx int64
	for name, n := range counts {
		names = append(names, name)
		if strings.HasPrefix(name, "tx:") {
			tx += n
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		put(uint64(counts[name]))
	}
	energy := v.TotalEnergySpent()
	put(math.Float64bits(energy))
	r.Fingerprint = hex.EncodeToString(h.Sum(nil)[:12])

	hostEpochs := float64(w.hosts * w.epochs)
	r.Sim["tx_msgs_per_host_epoch"] = float64(tx) / hostEpochs
	r.Sim["tx_bytes_per_host_epoch"] = float64(counts["tx-bytes"]) / hostEpochs
	r.Sim["energy_per_host_epoch"] = energy / hostEpochs
	r.Sim["false_suspicion_pairs"] = float64(falsePairs)
	setRadioCounters(r, counts)
}

// setLatencies records the detection-latency percentiles over lat (seconds).
// p95 is reported only where the sample supports it.
func setLatencies(r *result, lat []float64, p95 bool) {
	if len(lat) == 0 {
		return
	}
	s := stats.NewSummary(true)
	for _, l := range lat {
		s.Add(l)
	}
	r.Sim["detect_latency_p50_s"] = s.Percentile(0.50)
	if p95 {
		r.Sim["detect_latency_p95_s"] = s.Percentile(0.95)
	}
	r.Sim["detect_latency_n"] = float64(len(lat))
}

// radioKinds are the message kinds reported per kind.
var radioKinds = []string{
	"heartbeat", "digest", "health-update", "forwarded-update",
	"gw-register", "failure-report", "flood-heartbeat",
}

// setRadioCounters copies the medium's public tallies into the layer map.
func setRadioCounters(r *result, counts map[string]int64) {
	var tx, rx int64
	for name, n := range counts {
		switch {
		case strings.HasPrefix(name, "tx:"):
			tx += n
		case strings.HasPrefix(name, "rx:"):
			rx += n
		}
	}
	for _, k := range radioKinds {
		r.Layer["radio.tx."+k] = float64(counts["tx:"+k])
		r.Layer["radio.rx."+k] = float64(counts["rx:"+k])
	}
	r.Layer["radio.drop_loss"] = float64(counts["drop:loss"])
	if tx > 0 {
		r.Layer["radio.rx_per_tx"] = float64(rx) / float64(tx)
		r.Layer["intercluster.report_tx_share"] = float64(counts["tx:failure-report"]) / float64(tx)
	}
}

// --- strip engine ---------------------------------------------------------

func preparePar(w workload, o runOpts, r *result) prepared {
	r.Workers = o.workers
	buildStart := time.Now()
	eng := par.Build(par.Config{
		Seed: o.seed, Nodes: w.hosts, FieldSide: w.side, LossProb: lossProb,
		Workers: o.workers, CollectTrace: o.traced,
	})
	r.Layer["par.build_s"] = time.Since(buildStart).Seconds()
	victims := eng.CrashRandomAt(crashInstant(w, cluster.DefaultTiming()), w.crashes)
	return prepared{
		drain: func() { eng.RunEpochs(w.epochs) },
		collect: func(r *result) {
			h := sha256.New()
			for _, vic := range victims {
				aware, operational := eng.Completeness(vic)
				r.addVictim(aware, operational)
				fmt.Fprintf(h, "%d:%d/%d;", vic, aware, operational)
			}
			sends, deliveries := eng.Sends(), eng.Deliveries()
			fmt.Fprintf(h, "%d,%d", sends, deliveries)
			r.Fingerprint = hex.EncodeToString(h.Sum(nil)[:12])
			if o.traced {
				r.TraceHash = eng.TraceHash()
			}
			r.Events = sends + deliveries
			r.Sim["tx_msgs_per_host_epoch"] = float64(sends) / float64(w.hosts*w.epochs)
			r.Layer["par.strips"] = float64(eng.Strips())
			r.Layer["par.sends"] = float64(sends)
			r.Layer["par.deliveries"] = float64(deliveries)
		},
	}
}

// --- struct-of-arrays engine ----------------------------------------------

func prepareShard(w workload, o runOpts, r *result) prepared {
	r.Workers = o.workers
	cfg := scenario.ShardedCrashWave(scenario.Config{
		Seed: o.seed, Nodes: w.hosts, FieldSide: w.side, LossProb: lossProb,
	}, w.shards, o.workers, w.epochs, w.crashes, w.crashEpoch)
	buildStart := time.Now()
	eng := shard.Build(cfg)
	r.Layer["shard.build_s"] = time.Since(buildStart).Seconds()
	var res shard.Result
	return prepared{
		drain: func() { res = eng.Run() },
		collect: func(r *result) {
			var lat []float64
			for _, v := range res.Victims {
				r.addVictim(v.Aware, w.hosts-len(res.Victims))
				if v.DetectedAt >= 0 {
					lat = append(lat, time.Duration(v.DetectedAt-v.CrashedAt).Seconds())
				}
			}
			r.Events = res.Events
			r.Fingerprint = fmt.Sprintf("%016x/%016x", res.TraceHash, res.StateHash)
			hostEpochs := float64(w.hosts * w.epochs)
			r.Sim["tx_msgs_per_host_epoch"] = float64(res.Sends) / hostEpochs
			r.Sim["tx_bytes_per_host_epoch"] = float64(res.TxBytes) / hostEpochs
			r.Sim["energy_per_host_epoch"] = res.EnergySpent / hostEpochs
			r.Sim["false_suspicion_pairs"] = float64(res.FalsePositives)
			setLatencies(r, lat, false) // 25 cell-level samples: p50 only
			r.Layer["shard.build_heap_mb"] = float64(res.BuildHeapBytes) / (1 << 20)
			r.Layer["shard.events"] = float64(res.Events)
			if r.WallS > 0 {
				r.Layer["shard.events_per_s"] = float64(res.Events) / r.WallS
			}
			r.Layer["shard.sends"] = float64(res.Sends)
			r.Layer["shard.deliveries"] = float64(res.Deliveries)
			r.Layer["shard.drop_loss"] = float64(res.DropLoss)
		},
	}
}

// --- live path ------------------------------------------------------------

// meshLink counts and times what one daemon broadcasts (traced runs only).
type meshLink struct {
	transport.Link
	calls, bytes *int64
	busy         *time.Duration
}

func (l *meshLink) Broadcast(from wire.NodeID, payload []byte) error {
	t := time.Now()
	err := l.Link.Broadcast(from, payload)
	*l.busy += time.Since(t)
	*l.calls++
	*l.bytes += int64(len(payload))
	return err
}

// prepareMesh builds a fleet of daemons on one channel mesh, each with the
// full roster. The drain drives them cooperatively, the way internal/daemon's
// live-smoke test does: Poll then AdvanceTo, in steps of Thop/4. The highest
// NIDs crash at the midpoint of the crash epoch, and the driver samples every
// survivor's suspicions each 500 ms simulated, as scenario's monitor does.
func prepareMesh(w workload, o runOpts) prepared {
	timing := cluster.DefaultTiming()
	cm := transport.NewChanMesh()
	var bcCalls, bcBytes int64
	var bcBusy, pollBusy, advanceBusy time.Duration
	daemons := make([]*daemon.Daemon, w.hosts)
	for i := range daemons {
		id := wire.NodeID(i + 1)
		peers := make([]wire.NodeID, 0, w.hosts-1)
		for j := 1; j <= w.hosts; j++ {
			if wire.NodeID(j) != id {
				peers = append(peers, wire.NodeID(j))
			}
		}
		var link transport.Link = cm.Join(id)
		if o.traced {
			link = &meshLink{Link: link, calls: &bcCalls, bytes: &bcBytes, busy: &bcBusy}
		}
		daemons[i] = daemon.New(daemon.Config{
			ID: id, Seed: o.seed*1000 + int64(id), Timing: timing, Peers: peers,
		}, link)
	}
	victims := daemons[w.hosts-w.crashes:]
	survivors := daemons[:w.hosts-w.crashes]
	crashAt := crashInstant(w, timing)
	end := timing.EpochStart(wire.Epoch(w.epochs))
	step := timing.Thop / 4
	const monitorPeriod = sim.Time(500 * time.Millisecond)
	firstSeen := make([][]sim.Time, len(victims)) // victim -> survivor -> instant, 0 = not yet
	for i := range firstSeen {
		firstSeen[i] = make([]sim.Time, len(survivors))
	}

	drain := func() {
		crashed := false
		for t := step; t <= end; t += step {
			if !crashed && t > crashAt {
				for _, d := range victims {
					d.Crash()
				}
				crashed = true
			}
			if o.traced {
				prev := time.Now()
				for _, d := range daemons {
					d.Poll()
					mid := time.Now()
					d.AdvanceTo(t)
					now := time.Now()
					pollBusy += mid.Sub(prev)
					advanceBusy += now.Sub(mid)
					prev = now
				}
			} else {
				for _, d := range daemons {
					d.Poll()
					d.AdvanceTo(t)
				}
			}
			if crashed && t%monitorPeriod == 0 {
				for vi, v := range victims {
					for si, s := range survivors {
						if firstSeen[vi][si] == 0 && s.FDS().IsSuspected(v.ID()) {
							firstSeen[vi][si] = t
						}
					}
				}
			}
		}
	}

	collect := func(r *result) {
		h := sha256.New()
		var lat []float64
		for vi, v := range victims {
			aware := 0
			for si, s := range survivors {
				if s.FDS().IsSuspected(v.ID()) {
					aware++
				}
				if at := firstSeen[vi][si]; at != 0 {
					lat = append(lat, time.Duration(at-crashAt).Seconds())
				}
			}
			r.addVictim(aware, len(survivors))
		}
		falsePairs, bad := 0, int64(0)
		energy := 0.0
		p := transport.DefaultEnergy()
		for i, d := range daemons {
			r.Events += d.Kernel().Steps()
			bad += d.Transport().BadDatagrams()
			known := d.FDS().KnownFailed()
			fmt.Fprintf(h, "%d:%v;", d.ID(), known)
			if i < len(survivors) {
				for _, s := range known {
					if int(s) <= len(survivors) { // a live subject
						falsePairs++
					}
				}
			}
			// The link transport exposes remaining energy only; spend is the
			// budget plus harvest minus what is left.
			energy += p.InitialEnergy + p.HarvestRate*d.Now().Seconds() - d.Transport().Energy(d.ID())
		}
		fmt.Fprintf(h, "%d", r.Events)
		r.Fingerprint = hex.EncodeToString(h.Sum(nil)[:12])
		r.Sim["energy_per_host_epoch"] = energy / float64(w.hosts*w.epochs)
		r.Sim["false_suspicion_pairs"] = float64(falsePairs)
		setLatencies(r, lat, true)
		r.Layer["daemon.kernel_events"] = float64(r.Events)
		r.Layer["transport.bad_datagrams"] = float64(bad)
		if o.traced {
			r.Layer["daemon.poll_s"] = pollBusy.Seconds()
			r.Layer["daemon.advance_s"] = advanceBusy.Seconds()
			r.Layer["transport.broadcast_calls"] = float64(bcCalls)
			r.Layer["transport.broadcast_s"] = bcBusy.Seconds()
			r.Layer["transport.tx_bytes"] = float64(bcBytes)
			hostEpochs := float64(w.hosts * w.epochs)
			r.Sim["tx_msgs_per_host_epoch"] = float64(bcCalls) / hostEpochs
			r.Sim["tx_bytes_per_host_epoch"] = float64(bcBytes) / hostEpochs
			// The mesh's span table: broadcasts happen inside both other
			// rows, which the driver cannot subtract them from.
			calls := int64(len(daemons)) * int64(end/step)
			row := func(name string, n int64, busy time.Duration) spanRow {
				return spanRow{Layer: name, Calls: n, TotalS: busy.Seconds(), SelfS: busy.Seconds(), Share: busy.Seconds() / r.WallS}
			}
			r.Spans = []spanRow{
				row("daemon.poll", calls, pollBusy),
				row("daemon.advance", calls, advanceBusy),
				row("transport.broadcast", bcCalls, bcBusy),
			}
		}
	}
	return prepared{drain: drain, collect: collect}
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
