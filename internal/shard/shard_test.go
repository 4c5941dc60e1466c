package shard

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"clusterfds/internal/cluster"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// goldenConfig mirrors the repository's 100-host golden scenario (seed
// 20260806, 500 m field, p = 0.1, two crash waves, 12 epochs) on the
// sharded engine. The legacy kernel's golden trace hash in golden_test.go
// is untouched by this engine — the two kernels draw from different RNG
// disciplines by design — so the sharded engine pins its OWN trace hash
// here, with the same discipline: committed once, bit-identical at every
// shard and worker count.
func goldenConfig() Config {
	iv := sim.Time(10 * time.Second)
	ms := sim.Time(time.Millisecond)
	return Config{
		Seed:   20260806,
		N:      100,
		Side:   500,
		Epochs: 12,
		Timing: cluster.DefaultTiming(),
		Radio:  radio.Defaults(0.1),
		Crashes: []Crash{
			{ID: 7, At: 3*iv + 200*ms},
			{ID: 23, At: 3*iv + 200*ms},
			{ID: 55, At: 3*iv + 200*ms},
			{ID: 12, At: 6*iv + 700*ms},
			{ID: 81, At: 6*iv + 700*ms},
		},
	}
}

// Committed hashes for goldenConfig(). If a deliberate protocol or RNG
// change moves them, re-pin BOTH from a -shards 1 -workers 1 run and say so
// in the commit; if they move without such a change, determinism broke.
const (
	goldenTraceHash uint64 = 0x90d3272ad2fc23c2
	goldenStateHash uint64 = 0x1ab6276f5f3b0a98
)

// TestShardedGoldenHashAcrossPartitions is the engine's core contract: the
// trace and state hashes are bit-identical for every shard count in
// {1, 2, 4, 8} and every worker count in {1, 2, 4}, and equal to the
// committed constants.
func TestShardedGoldenHashAcrossPartitions(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, w := range []int{1, 2, 4} {
			cfg := goldenConfig()
			cfg.Shards, cfg.Workers = k, w
			res := Build(cfg).Run()
			if res.TraceHash != goldenTraceHash {
				t.Errorf("shards=%d workers=%d: trace hash %#016x, want %#016x",
					k, w, res.TraceHash, goldenTraceHash)
			}
			if res.StateHash != goldenStateHash {
				t.Errorf("shards=%d workers=%d: state hash %#016x, want %#016x",
					k, w, res.StateHash, goldenStateHash)
			}
		}
	}
}

// TestShardedGoldenBehavior sanity-checks the protocol outcome on the
// golden scenario: all five victims are eventually detected by their cells
// and the epidemic relay spreads awareness to (almost) the whole live
// population.
func TestShardedGoldenBehavior(t *testing.T) {
	cfg := goldenConfig()
	cfg.Shards = 4
	res := Build(cfg).Run()
	if len(res.Victims) != 5 {
		t.Fatalf("victims = %d, want 5", len(res.Victims))
	}
	for _, v := range res.Victims {
		if v.DetectedAt < 0 {
			// A victim alone in its cell is undetectable by design; the
			// golden seed places all five in populated cells.
			t.Errorf("victim %d never detected", v.ID)
			continue
		}
		if v.DetectedAt <= v.CrashedAt {
			t.Errorf("victim %d detected at %d, before its crash at %d", v.ID, v.DetectedAt, v.CrashedAt)
		}
		if v.Aware < 90 {
			t.Errorf("victim %d known to only %d hosts", v.ID, v.Aware)
		}
	}
	if res.Sends == 0 || res.Deliveries == 0 || res.TxBytes == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if res.EnergySpent <= 0 {
		t.Fatalf("energy accounting inert: %v", res.EnergySpent)
	}
}

// TestShardedSeedSensitivity guards against a hash that ignores its inputs:
// a different seed must move both hashes.
func TestShardedSeedSensitivity(t *testing.T) {
	cfg := goldenConfig()
	cfg.Seed++
	res := Build(cfg).Run()
	if res.TraceHash == goldenTraceHash || res.StateHash == goldenStateHash {
		t.Fatalf("hashes did not move with the seed: trace=%#x state=%#x", res.TraceHash, res.StateHash)
	}
}

// TestWireSizeFormulas pins the engine's closed-form byte accounting to the
// authoritative WireSize implementations in internal/wire.
func TestWireSizeFormulas(t *testing.T) {
	if got := (&wire.Heartbeat{}).WireSize(); got != hbBytes {
		t.Errorf("heartbeat: closed form %d, wire %d", hbBytes, got)
	}
	for _, n := range []int{0, 1, 7, 200} {
		d := &wire.Digest{Heard: make([]wire.NodeID, n)}
		if got, want := d.WireSize(), digestFixed+perIDBytes*n; got != want {
			t.Errorf("digest(%d heard): closed form %d, wire %d", n, want, got)
		}
	}
	for _, c := range []struct{ nNew, nAll, nResc int }{
		{0, 0, 0}, {1, 1, 0}, {3, 10, 2}, {0, 5, 1},
	} {
		h := &wire.HealthUpdate{
			NewFailed: make([]wire.NodeID, c.nNew),
			AllFailed: make([]wire.NodeID, c.nAll),
			Rescinded: make([]wire.Rescission, c.nResc),
		}
		want := healthFixed + perIDBytes*c.nNew + perIDBytes*c.nAll + perRescindSize*c.nResc
		if got := h.WireSize(); got != want {
			t.Errorf("health%+v: closed form %d, wire %d", c, want, got)
		}
		r := &wire.FailureReport{
			NewFailed: make([]wire.NodeID, c.nNew),
			AllFailed: make([]wire.NodeID, c.nAll),
			Rescinded: make([]wire.Rescission, c.nResc),
		}
		want = reportFixed + perIDBytes*c.nNew + perIDBytes*c.nAll + perRescindSize*c.nResc
		if got := r.WireSize(); got != want {
			t.Errorf("report%+v: closed form %d, wire %d", c, want, got)
		}
	}
}

// TestWindowInvariant verifies the conservative lookahead directly: with
// shards > 1, every cross-shard event lands strictly after the window it
// was created in (Run panics otherwise), and the window width equals the
// radio's MinDelay — NOT Thop, which is the paper's upper bound on one-hop
// delay and would be an unsound lookahead.
func TestWindowInvariant(t *testing.T) {
	cfg := goldenConfig()
	cfg.Shards = 8
	e := Build(cfg)
	if e.w != cfg.Radio.MinDelay {
		t.Fatalf("window width %d, want MinDelay %d", e.w, cfg.Radio.MinDelay)
	}
	if e.w >= cfg.Timing.Thop {
		t.Fatalf("window width %d not below Thop %d", e.w, cfg.Timing.Thop)
	}
	e.Run() // panics on any invariant violation
}

// TestShardClamping: more requested shards than cell columns must clamp,
// not crash or leave empty strips.
func TestShardClamping(t *testing.T) {
	cfg := goldenConfig()
	cfg.Shards = 1000
	e := Build(cfg)
	if e.nShards != e.cols {
		t.Fatalf("shards = %d, want clamped to %d columns", e.nShards, e.cols)
	}
	res := e.Run()
	if res.TraceHash != goldenTraceHash {
		t.Fatalf("clamped run diverged: %#016x", res.TraceHash)
	}
}

// TestEventIsHalfACacheLine pins ev at 32 bytes and the bound that pays for
// it: a payload's victim-slot count is a uint16, so Build refuses a crash
// schedule longer than a payload can count.
func TestEventIsHalfACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(ev{}); size != 32 {
		t.Errorf("ev is %d bytes, want 32", size)
	}
	cfg := goldenConfig()
	cfg.Crashes = make([]Crash, math.MaxUint16+1)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "65536 crashes scheduled") {
			t.Fatalf("Build of 65536 crashes: recovered %q, want the payload-count panic", msg)
		}
	}()
	Build(cfg)
}

// TestCellsNeverSpanShards pins the layout property the race-freedom
// argument rests on: every member of a cell maps to the same shard.
func TestCellsNeverSpanShards(t *testing.T) {
	cfg := goldenConfig()
	cfg.Shards = 4
	e := Build(cfg)
	for c := int32(0); c < int32(e.cols*e.rows); c++ {
		ros := e.roster(c)
		for _, m := range ros {
			if e.shardOf(m) != e.shardOf(ros[0]) {
				t.Fatalf("cell %d spans shards %d and %d", c, e.shardOf(ros[0]), e.shardOf(m))
			}
		}
	}
}

// goldenWindows is how many busy windows goldenConfig() takes. The number is
// a property of the event set alone — sim.RunWindows opens a window at the
// earliest pending instant of any shard — so it is the same at every shard
// and worker count, and it was 691 on the single-heap engine this queue
// replaced: minTime is exact to the nanosecond, and an epoch's idle 980 ms
// costs one jump, not a thousand empty windows.
const goldenWindows = 691

func TestWindowCount(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, w := range []int{1, 2, 4} {
			cfg := goldenConfig()
			cfg.Shards, cfg.Workers = k, w
			if res := Build(cfg).Run(); res.Windows != goldenWindows {
				t.Errorf("shards=%d workers=%d: %d windows, want %d", k, w, res.Windows, goldenWindows)
			}
		}
	}
}

// TestQueueExactForAnyRadio runs the golden field on two radios the ring is
// not sized for by default — MaxDelay = 100 x MinDelay, and a MaxDelay more
// windows ahead than the ring may span, so that late deliveries and their
// victim-slot payloads wait in the far heap — and expects the state hashes
// and window counts the single-heap engine produced for them (commit ef669aa,
// shards 1 and 4). The trace values are not the heap engine's: they are the
// multiset hash, printed by one binary that summed it beside the ordered fold
// it replaced while that fold still produced the heap engine's values
// (EXPERIMENTS.md "The barrier hashes nothing", step 1).
func TestQueueExactForAnyRadio(t *testing.T) {
	us, ms := sim.Time(time.Microsecond), sim.Time(time.Millisecond)
	for _, c := range []struct {
		minDelay, maxDelay sim.Time
		trace, state       uint64
		windows            int
		farDeliveries      bool
	}{
		{100 * us, 10 * ms, 0x6e7df48d885f43d4, 0x97f0f1db1530b21a, 1499, false},
		{2 * us, 12 * ms, 0x04a7c30b26e53c7c, 0x981c7e47633f6234, 5170, true},
	} {
		for _, k := range []int{1, 4} {
			cfg := goldenConfig()
			cfg.Epochs = 5
			cfg.Radio.MinDelay, cfg.Radio.MaxDelay = c.minDelay, c.maxDelay
			cfg.Shards, cfg.Workers = k, 2
			e := Build(cfg)
			q := &e.shards[0].queue
			if beyond := int64(c.maxDelay)>>q.shift >= int64(len(q.ring)); beyond != c.farDeliveries {
				t.Fatalf("radio %v-%v: ring of %d buckets of %d ns, deliveries beyond it: %v, want %v",
					c.minDelay, c.maxDelay, len(q.ring), 1<<q.shift, beyond, c.farDeliveries)
			}
			res := e.Run()
			if res.TraceHash != c.trace || res.StateHash != c.state || res.Windows != c.windows {
				t.Errorf("radio %v-%v shards=%d: trace %#016x state %#016x windows %d, want %#016x %#016x %d",
					c.minDelay, c.maxDelay, k, res.TraceHash, res.StateHash, res.Windows, c.trace, c.state, c.windows)
			}
		}
	}
}

// TestArenaOutlivesEveryTier pins what closeWindow's arena recycling leans
// on: queue.len() counts all three tiers. A report that is the shard's only
// pending event — sorted into the open bucket, in the near heap, in a ring
// bucket or in the far heap — keeps the arena its victim slots live in, the
// delivery then reads them, and only an empty queue lets the arena go.
func TestArenaOutlivesEveryTier(t *testing.T) {
	ms := sim.Time(time.Millisecond)
	for _, tier := range []string{"open", "near", "ring", "far"} {
		cfg := goldenConfig()
		cfg.Shards = 1
		cfg.Radio.MinDelay = sim.Time(2 * time.Microsecond) // the ring spans 8.4 ms of MaxDelay's 12
		e := Build(cfg)
		sh := &e.shards[0]
		q := &sh.queue
		var now sim.Time
		for q.n > 0 { // drop the epoch ticks and crashes
			now = q.pop().at
		}
		sh.arena = append(sh.arena, 7)
		e.closeWindow(now + 1)
		if len(sh.arena) != 0 {
			t.Fatalf("%s: an empty queue did not recycle the arena", tier)
		}

		const receiver, slot = 41, 3
		report := ev{at: now, owner: 2, kind: dReport, aux: receiver, off: 0, n: 1, bytes: reportFixed}
		sh.arena = append(sh.arena, slot)
		switch tier {
		case "open": // two in one ring bucket; popping the first sorts both into open
			report.at += ms
			q.push(ev{at: report.at - 1, kind: ekCrash, aux: 0})
			q.push(report)
			q.pop()
		case "ring":
			report.at += ms
			q.push(report)
		case "far":
			report.at += 11 * ms
			q.push(report)
		default:
			q.push(report)
		}
		in := map[string]int{"open": len(q.open) - q.pos, "near": q.near.len(), "ring": q.ringN, "far": q.far.len()}
		if in[tier] != 1 || q.n != 1 {
			t.Fatalf("%s: the report is not where the test means it to be: %v", tier, in)
		}
		e.closeWindow(now + 1)
		if len(sh.arena) != 1 {
			t.Fatalf("%s: arena recycled under a pending report", tier)
		}
		e.drain(0, report.at+1)
		if !getBit(e.known, receiver*uint32(e.vWords), slot) {
			t.Fatalf("%s: the delivery did not read its victim slot", tier)
		}
	}
}

// traceRec is one trace record as the tests below build them: the six
// fields shardState.record takes.
type traceRec struct {
	at    sim.Time
	owner uint32
	seq   uint32
	kind  uint8
	aux   uint32
	bytes uint32
}

// hashDealt records recs on k shards — dealt round-robin from a shuffled
// order when rng is not nil — and returns the TraceHash summarize makes of
// them: the engine's own two additions, not a copy of them.
func hashDealt(recs []traceRec, k int, rng *rand.Rand) uint64 {
	order := slices.Clone(recs)
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	e := &Engine{shards: make([]shardState, k)}
	for i, r := range order {
		e.shards[i%k].record(r.at, r.owner, r.seq, r.kind, r.aux, r.bytes)
	}
	return e.summarize(1).TraceHash
}

// TestTraceHashIsAMultisetHash pins what Result.TraceHash promises: it is a
// function of the multiset of trace records and of nothing else — not of
// which shard processed a record, nor in what order — and it tells apart any
// two multisets the ordered fold it replaced could (record keys are unique,
// so equal multisets are equal key-sorted sequences). Each clause names the
// planted defect it was seen to fail on.
func TestTraceHashIsAMultisetHash(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	recs := make([]traceRec, 500)
	for i := range recs {
		recs[i] = traceRec{at: sim.Time(rng.Intn(40)), owner: uint32(1 + rng.Intn(50)), seq: uint32(i),
			kind: uint8(rng.Intn(int(dReport) + 1)), aux: rng.Uint32() >> 8, bytes: uint32(rng.Intn(500))}
	}
	want := hashDealt(recs, 1, nil)

	// (a) Any deal, any order, one value.
	for _, k := range []int{1, 2, 4, 8} {
		for round := 0; round < 20; round++ {
			if got := hashDealt(recs, k, rng); got != want {
				t.Fatalf("%d shards, shuffle %d: %#016x, in order on one shard %#016x", k, round, got, want)
			}
		}
	}

	// (b), (d) One field of one record changed — at by one nanosecond (plant:
	// at left out of recMix) — a record dropped, a record duplicated: each moves
	// the hash, and a duplicate is not a drop (plant: xor for + in record and
	// summarize — the second copy cancels the first).
	for i := 0; i < len(recs); i += 7 {
		r := recs[i]
		for f, m := range []traceRec{
			{r.at + 1, r.owner, r.seq, r.kind, r.aux, r.bytes},
			{r.at, r.owner + 1, r.seq, r.kind, r.aux, r.bytes},
			{r.at, r.owner, r.seq + 1, r.kind, r.aux, r.bytes},
			{r.at, r.owner, r.seq, r.kind + 1, r.aux, r.bytes},
			{r.at, r.owner, r.seq, r.kind, r.aux + 1, r.bytes},
			{r.at, r.owner, r.seq, r.kind, r.aux, r.bytes + 1},
		} {
			mod := slices.Clone(recs)
			mod[i] = m
			if hashDealt(mod, 4, rng) == want {
				t.Fatalf("record %d: changing field %d left the hash at %#016x", i, f, want)
			}
		}
		dropped := hashDealt(slices.Delete(slices.Clone(recs), i, i+1), 4, rng)
		doubled := hashDealt(append(slices.Clone(recs), r), 4, rng)
		if dropped == want || doubled == want || dropped == doubled {
			t.Fatalf("record %d: as is %#016x, dropped %#016x, duplicated %#016x", i, want, dropped, doubled)
		}
	}

	// (c) aux or bytes swapped between two records (plant: recMix as a sum of
	// one mix per field — the fields are hashed, the records are not).
	for i := 0; i+1 < len(recs); i += 7 {
		for f, swap := range []func(x, y *traceRec){
			func(x, y *traceRec) { x.aux, y.aux = y.aux, x.aux },
			func(x, y *traceRec) { x.bytes, y.bytes = y.bytes, x.bytes },
		} {
			mod := slices.Clone(recs)
			if swap(&mod[i], &mod[i+1]); mod[i] == recs[i] {
				continue // the two records agree on the field
			}
			if hashDealt(mod, 4, rng) == want {
				t.Fatalf("records %d and %d: swapping field %d between them left the hash at %#016x", i, i+1, 4+f, want)
			}
		}
	}
}
