package shard

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Wire sizes, closed-form from internal/wire's WireSize methods (pinned by
// TestWireSizeFormulas): the engine never materializes message structs, it
// just accounts the bytes they would occupy.
const (
	hbBytes        = 14                        // (*wire.Heartbeat).WireSize()
	digestFixed    = 1 + 4 + 4 + 8 + 2 + 1 + 8 // + 4 per heard ID
	healthFixed    = 1 + 4 + 4 + 8 + 2 + 2 + 2 + 1
	reportFixed    = 1 + 4 + 8 + 8 + 2 + 2 + 2 + 4 + 4
	perIDBytes     = 4
	perRescindSize = 12
)

// Run executes the built world to the horizon and returns the summary.
// Results are bit-identical for every cfg.Shards and cfg.Workers value;
// only wall-clock time changes. Run consumes the engine.
//
// The window loop is sim.RunWindows. This engine's windows are half-open —
// shards drain [t, t+w) up to an exclusive horizon — so it hands the
// closed-interval driver span w-1 and limit horizon-1 and drains events
// strictly before end+1. Shards touch only host rows they own, their own
// outboxes, and their own trace accumulator — written by the worker draining
// the shard, read by summarize after RunWindows has returned — so the drain is
// race-free by layout.
func (e *Engine) Run() Result {
	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > e.nShards {
		workers = e.nShards
	}
	sim.RunWindows(e.nShards, workers, e.w-1, e.horizon-1,
		func(s int) (sim.Time, bool) { return e.shards[s].queue.minTime() },
		func(s int, end sim.Time) { e.drain(int32(s), end+1) },
		func(end sim.Time) { e.closeWindow(end + 1) })
	return e.summarize(workers)
}

// closeWindow is the serial barrier after the window that ended
// (exclusively) at wEnd: it merges the outboxes in (dst, src) order. Queue
// order is by the global event key, so insertion order cannot matter — the
// fixed iteration order just keeps arena layouts canonical. A shard whose
// queue is still empty afterwards — all of it: a report waiting in a far-off
// bucket still points into the arena — has no in-flight event referencing its
// payload arena, which is recycled.
func (e *Engine) closeWindow(wEnd sim.Time) {
	k := e.nShards
	for d := 0; d < k; d++ {
		dst := &e.shards[d]
		for s := 0; s < k; s++ {
			ob := &e.shards[s].out[d]
			if len(ob.evs) == 0 {
				continue
			}
			base := uint32(len(dst.arena))
			dst.arena = append(dst.arena, ob.payload...)
			for _, evt := range ob.evs {
				if evt.at < wEnd {
					panic(fmt.Sprintf("shard: conservative window invariant violated: cross-shard event at %d inside window ending %d", evt.at, wEnd))
				}
				evt.off += base
				dst.queue.push(evt)
			}
			ob.evs = ob.evs[:0]
			ob.payload = ob.payload[:0]
		}
		if dst.queue.len() == 0 {
			dst.arena = dst.arena[:0]
		}
	}

	// Liveness reporting only — reads counters at the barrier, touches
	// nothing the simulation or its hashes depend on.
	if e.windows++; e.cfg.Progress != nil && e.windows%progressEvery == 0 {
		var events uint64
		for s := range e.shards {
			events += e.shards[s].c.events
		}
		e.cfg.Progress(wEnd, events)
	}
}

// drain processes every event of shard s scheduled before wEnd.
func (e *Engine) drain(s int32, wEnd sim.Time) {
	sh := &e.shards[s]
	for {
		mt, ok := sh.queue.minTime()
		if !ok || mt >= wEnd {
			return
		}
		v := sh.queue.pop()
		switch v.kind {
		case ekEpoch:
			e.epochTick(s, sh, v)
		case ekCrash:
			slot := int(v.aux)
			e.crashed[e.victims[slot].idx] = true
			e.victims[slot].crashed = true
		case ekHB:
			e.sendHB(s, sh, v)
		case ekDigest:
			e.sendDigest(s, sh, v)
		case ekHealth, ekCheck:
			e.round3(s, sh, v)
		case ekRelay:
			e.sendRelay(s, sh, v)
		case dHB, dDigest, dHealth, dReport:
			e.deliver(s, sh, v)
		default:
			panic("shard: unknown event kind")
		}
	}
}

// epochTick starts epoch v.aux for shard s: per cell, elect the epoch's CH
// and deputy (lowest and second-lowest live NID), reset per-epoch evidence,
// and schedule each live host's jittered heartbeat plus the deputy's
// takeover check at R3End + Thop.
func (e *Engine) epochTick(s int32, sh *shardState, v ev) {
	start := v.at
	span := e.cfg.Timing.JitterSpan()
	for col := e.colStart[s]; col < e.colStart[s+1]; col++ {
		for row := 0; row < e.rows; row++ {
			c := int32(int(col)*e.rows + row)
			ros := e.roster(c)
			if len(ros) == 0 {
				continue
			}
			ch, dep := int32(-1), int32(-1)
			for _, i := range ros {
				if e.crashed[i] {
					continue
				}
				if ch < 0 {
					ch = int32(i)
				} else if dep < 0 {
					dep = int32(i)
					break
				}
			}
			e.cellCH[c], e.cellDeputy[c] = ch, dep
			for _, i := range ros {
				if e.crashed[i] {
					continue
				}
				row := i * uint32(e.evWords)
				for w := uint32(0); w < uint32(e.evWords); w++ {
					e.heard[row+w] = 0
					e.alive[row+w] = 0
				}
				e.healthSeen[i] = false
				j := sim.Time(e.rng[i].Int63n(span))
				sh.queue.push(ev{at: start + j, owner: i + 1, seq: e.nextSeq(i), kind: ekHB})
			}
			if dep >= 0 {
				i := uint32(dep)
				at := start + e.cfg.Timing.R3End() + e.cfg.Timing.Thop
				sh.queue.push(ev{at: at, owner: i + 1, seq: e.nextSeq(i), kind: ekCheck})
			}
		}
	}
}

func (e *Engine) nextSeq(i uint32) uint32 {
	q := e.seq[i]
	e.seq[i]++
	return q
}

// sendHB is fds.R-1: broadcast the heartbeat to the cell, then schedule the
// host's own round-2 digest.
func (e *Engine) sendHB(s int32, sh *shardState, v ev) {
	i := v.owner - 1
	if e.crashed[i] {
		return
	}
	sh.c.events++
	setBit(e.heard, i*uint32(e.evWords), e.memberPos[i]) // "I know I'm alive"
	e.spendTx(sh, i, hbBytes)
	sh.record(v.at, v.owner, v.seq, ekHB, 0, hbBytes)
	e.bcastCell(sh, i, v.at, dHB, hbBytes, 0, 0)

	t := &e.cfg.Timing
	j := sim.Time(e.rng[i].Int63n(t.JitterSpan()))
	at := t.EpochStart(t.EpochOf(v.at)) + t.R1End() + j
	sh.queue.push(ev{at: at, owner: v.owner, seq: e.nextSeq(i), kind: ekDigest})
}

// sendDigest is fds.R-2: broadcast the heard-set digest; the epoch's CH
// additionally schedules its round-3 detection pass.
func (e *Engine) sendDigest(s int32, sh *shardState, v ev) {
	i := v.owner - 1
	if e.crashed[i] {
		return
	}
	sh.c.events++
	nHeard := popRow(e.heard, i, e.evWords)
	size := uint32(digestFixed + perIDBytes*nHeard)
	e.spendTx(sh, i, size)
	sh.record(v.at, v.owner, v.seq, ekDigest, uint32(nHeard), size)
	e.bcastCell(sh, i, v.at, dDigest, size, 0, 0)

	if e.cellCH[e.cellOf[i]] == int32(i) {
		t := &e.cfg.Timing
		j := sim.Time(e.rng[i].Int63n(t.JitterSpan()))
		at := t.EpochStart(t.EpochOf(v.at)) + t.R2End() + j
		sh.queue.push(ev{at: at, owner: v.owner, seq: e.nextSeq(i), kind: ekHealth})
	}
}

// round3 is the detection pass, run by the CH (ekHealth) or — when no
// health update arrived by R3End+Thop — by the deputy (ekCheck, the paper's
// DCH takeover). A roster member is newly failed when neither the
// detector's own heard set nor any digest lists it; a previously failed
// member heard again is rescued (rescind propagation). The detector then
// broadcasts the health update in-cell and feeds newly detected true
// victims into its own epidemic relay path.
func (e *Engine) round3(s int32, sh *shardState, v ev) {
	i := v.owner - 1
	if e.crashed[i] {
		return
	}
	if v.kind == ekCheck && e.healthSeen[i] {
		return // the CH's update arrived; no takeover
	}
	sh.c.events++

	cell := e.cellOf[i]
	ros := e.roster(cell)
	hb := i * uint32(e.evWords)
	newStart := uint32(len(sh.arena))
	nNew, nResc := 0, 0
	for p, m := range ros {
		if m == i {
			continue
		}
		seen := getBit(e.heard, hb, uint32(p)) || getBit(e.alive, hb, uint32(p))
		believedFailed := getBit(e.cellFailed, hb, uint32(p))
		switch {
		case !seen && !believedFailed:
			setBit(e.cellFailed, hb, uint32(p))
			nNew++
			if slot, ok := e.victimSlot[m]; ok {
				if e.victims[slot].detect < 0 {
					e.victims[slot].detect = v.at
				}
				sh.arena = append(sh.arena, uint32(slot))
			} else {
				sh.c.falsePos++
			}
		case seen && believedFailed:
			clearBit(e.cellFailed, hb, uint32(p))
			nResc++
			sh.c.rescues++
		}
	}
	nSlots := uint32(len(sh.arena)) - newStart
	nAll := popRow(e.cellFailed, i, e.evWords)
	size := uint32(healthFixed + perIDBytes*nNew + perIDBytes*nAll + perRescindSize*nResc)
	e.spendTx(sh, i, size)
	sh.record(v.at, v.owner, v.seq, v.kind, uint32(nNew), size)
	e.bcastCell(sh, i, v.at, dHealth, size, newStart, nSlots)
	e.learn(sh, i, sh.arena[newStart:newStart+nSlots], v.at)
}

// sendRelay is one epidemic hop: broadcast every victim learned since the
// host's last relay to all hosts within radio range, crossing cell and
// shard boundaries.
func (e *Engine) sendRelay(s int32, sh *shardState, v ev) {
	i := v.owner - 1
	e.relayPend[i] = false
	if e.crashed[i] {
		return
	}
	off := uint32(len(sh.arena))
	pr := i * uint32(e.vWords)
	for w := uint32(0); w < uint32(e.vWords); w++ {
		word := e.pending[pr+w]
		e.pending[pr+w] = 0
		for word != 0 {
			sh.arena = append(sh.arena, w<<6+uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	n := uint32(len(sh.arena)) - off
	if n == 0 {
		return
	}
	sh.c.events++
	nAll := popRow(e.known, i, e.vWords)
	size := uint32(reportFixed + perIDBytes*int(n) + perIDBytes*nAll)
	e.spendTx(sh, i, size)
	sh.record(v.at, v.owner, v.seq, ekRelay, n, size)
	e.bcastRadio(s, sh, i, v.at, off, n, size)
}

// deliver handles all per-receiver arrivals. Aliveness is checked here, in
// the receiver's shard — never at send time — so a sender's random-stream
// consumption cannot depend on remote state.
func (e *Engine) deliver(s int32, sh *shardState, v ev) {
	sh.c.events++
	sh.record(v.at, v.owner, v.seq, v.kind, v.aux, v.bytes)
	r := v.aux
	if e.crashed[r] {
		sh.c.dropDead++
		return
	}
	sh.c.deliveries++
	sh.c.rxBytes += uint64(v.bytes)
	e.energy[r] -= e.cfg.Radio.RxByteCost * float64(v.bytes)
	si := v.owner - 1
	switch v.kind {
	case dHB:
		setBit(e.heard, r*uint32(e.evWords), e.memberPos[si])
	case dDigest:
		// The sender's heard set is frozen for the whole digest round
		// (every round-1 delivery lands before the earliest digest send),
		// so unioning the live row is exact — and sender and receiver
		// share a cell, hence a shard, so the read is race-free.
		rr, sr := r*uint32(e.evWords), si*uint32(e.evWords)
		for w := uint32(0); w < uint32(e.evWords); w++ {
			e.alive[rr+w] |= e.heard[sr+w]
		}
	case dHealth:
		e.healthSeen[r] = true
		// Adopt the detector's cumulative failed set (the paper's
		// AllFailed catch-up), then learn the newly detected victims.
		rr, sr := r*uint32(e.evWords), si*uint32(e.evWords)
		copy(e.cellFailed[rr:rr+uint32(e.evWords)], e.cellFailed[sr:sr+uint32(e.evWords)])
		e.learn(sh, r, sh.arena[v.off:][:v.n], v.at)
	case dReport:
		e.learn(sh, r, sh.arena[v.off:][:v.n], v.at)
	}
}

// learn records victim slots at host i; on first news since the host's
// last relay, it schedules one jittered epidemic rebroadcast. Per-host
// dedup (the known bitset) is what keeps the flood linear instead of
// exponential.
func (e *Engine) learn(sh *shardState, i uint32, slots []uint32, t sim.Time) {
	kr := i * uint32(e.vWords)
	news := false
	for _, slot := range slots {
		if !getBit(e.known, kr, slot) {
			setBit(e.known, kr, slot)
			setBit(e.pending, kr, slot)
			news = true
		}
	}
	if !news || e.relayPend[i] {
		return
	}
	e.relayPend[i] = true
	j := sim.Time(e.rng[i].Int63n(e.cfg.Timing.JitterSpan()))
	shOwn := &e.shards[e.shardOf(i)]
	shOwn.queue.push(ev{at: t + j, owner: i + 1, seq: e.nextSeq(i), kind: ekRelay})
}

// bcastCell schedules per-receiver deliveries of an in-cell broadcast. The
// loss and delay draws come from the sender's stream in fixed roster order
// for every member — including crashed ones (dropped on arrival) — so the
// stream advances identically at every partition.
func (e *Engine) bcastCell(sh *shardState, i uint32, t sim.Time, kind uint8, size, off, n uint32) {
	span := int64(e.cfg.Radio.MaxDelay - e.cfg.Radio.MinDelay)
	for _, m := range e.roster(e.cellOf[i]) {
		if m == i {
			continue
		}
		if e.rng[i].Float64() < e.cfg.Radio.LossProb {
			sh.c.dropLoss++
			continue
		}
		delay := e.cfg.Radio.MinDelay
		if span > 0 {
			delay += sim.Time(e.rng[i].Int63n(span + 1))
		}
		sh.queue.push(ev{at: t + delay, owner: i + 1, seq: e.nextSeq(i), kind: kind, aux: m, off: off, n: uint16(n), bytes: size})
	}
}

// bcastRadio schedules per-receiver deliveries of a radio-range broadcast:
// all hosts within Range, found via the cell grid (reach cells out in each
// direction). Receivers in other strips go to the per-destination outbox
// with the payload copied once per destination shard.
func (e *Engine) bcastRadio(s int32, sh *shardState, i uint32, t sim.Time, off, n, size uint32) {
	if sh.dstOff == nil {
		sh.dstOff = make([]int32, e.nShards)
	}
	for d := range sh.dstOff {
		sh.dstOff[d] = -1
	}
	payload := sh.arena[off : off+n]
	cell := int(e.cellOf[i])
	col, row := cell/e.rows, cell%e.rows
	r2 := e.cfg.Radio.Range * e.cfg.Radio.Range
	span := int64(e.cfg.Radio.MaxDelay - e.cfg.Radio.MinDelay)
	for dc := -e.reach; dc <= e.reach; dc++ {
		c2 := col + dc
		if c2 < 0 || c2 >= e.cols {
			continue
		}
		dstShard := e.shardOfCol[c2]
		for dr := -e.reach; dr <= e.reach; dr++ {
			rw := row + dr
			if rw < 0 || rw >= e.rows {
				continue
			}
			for _, m := range e.roster(int32(c2*e.rows + rw)) {
				if m == i {
					continue
				}
				dx, dy := e.posX[m]-e.posX[i], e.posY[m]-e.posY[i]
				if dx*dx+dy*dy > r2 {
					continue
				}
				if e.rng[i].Float64() < e.cfg.Radio.LossProb {
					sh.c.dropLoss++
					continue
				}
				delay := e.cfg.Radio.MinDelay
				if span > 0 {
					delay += sim.Time(e.rng[i].Int63n(span + 1))
				}
				evt := ev{at: t + delay, owner: i + 1, seq: e.nextSeq(i), kind: dReport, aux: m, off: off, n: uint16(n), bytes: size}
				if dstShard == s {
					sh.queue.push(evt)
					continue
				}
				ob := &sh.out[dstShard]
				if sh.dstOff[dstShard] < 0 {
					sh.dstOff[dstShard] = int32(len(ob.payload))
					ob.payload = append(ob.payload, payload...)
				}
				evt.off = uint32(sh.dstOff[dstShard])
				ob.evs = append(ob.evs, evt)
			}
		}
	}
}

func (e *Engine) spendTx(sh *shardState, i uint32, size uint32) {
	e.energy[i] -= e.cfg.Radio.TxBaseCost + e.cfg.Radio.TxByteCost*float64(size)
	sh.c.txBytes += uint64(size)
	sh.c.sends++
}

// --- bit helpers over packed per-host rows -------------------------------

func setBit(a []uint64, base, bit uint32)   { a[base+bit>>6] |= 1 << (bit & 63) }
func clearBit(a []uint64, base, bit uint32) { a[base+bit>>6] &^= 1 << (bit & 63) }
func getBit(a []uint64, base, bit uint32) bool {
	return a[base+bit>>6]&(1<<(bit&63)) != 0
}

func popRow(a []uint64, i uint32, words int) int {
	row := a[i*uint32(words) : (i+1)*uint32(words)]
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	return n
}

// --- results -------------------------------------------------------------

// VictimStat summarizes one scheduled crash.
type VictimStat struct {
	ID         wire.NodeID
	CrashedAt  sim.Time
	DetectedAt sim.Time // first cell-level detection, -1 if never
	Aware      int      // hosts that learned of the failure (any channel)
}

// Result is a run summary. Every field except Workers is a pure function
// of the Config with Workers and Shards excluded — the determinism tests
// pin TraceHash and StateHash across both.
type Result struct {
	Shards, Workers int

	Events     uint64 // host-owned events processed
	Sends      uint64
	Deliveries uint64
	DropLoss   uint64
	DropDead   uint64
	TxBytes    uint64
	RxBytes    uint64

	FalsePositives uint64
	Rescues        uint64
	Victims        []VictimStat
	Detected       int // victims with a cell-level detection

	EnergySpent float64

	TraceHash uint64 // send+delivery trace as a multiset: the sum of recMix over its records
	StateHash uint64 // final per-host state + victim metrics + counters

	BuildHeapBytes uint64 // live heap after Build (approximate; see fdsim)

	// Windows is how many conservative windows had work in them. It depends
	// on the events alone, so like the hashes it is the same at every Shards
	// and Workers.
	Windows int
}

func (e *Engine) summarize(workers int) Result {
	res := Result{
		Shards:         e.nShards,
		Workers:        workers,
		BuildHeapBytes: e.builtHeapBytes,
		Windows:        e.windows,
	}
	var c counters
	for s := range e.shards {
		c.add(&e.shards[s].c)
		res.TraceHash += e.shards[s].traceSum
	}
	res.Events = c.events
	res.Sends = c.sends
	res.Deliveries = c.deliveries
	res.DropLoss = c.dropLoss
	res.DropDead = c.dropDead
	res.TxBytes = c.txBytes
	res.RxBytes = c.rxBytes
	res.FalsePositives = c.falsePos
	res.Rescues = c.rescues

	// Serial folds in host-index order: float accumulation order is part
	// of the bit-exactness contract.
	spent := 0.0
	for i := 0; i < e.cfg.N; i++ {
		spent += e.cfg.Radio.InitialEnergy - e.energy[i]
	}
	res.EnergySpent = spent

	for slot := range e.victims {
		v := &e.victims[slot]
		aware := 0
		for i := 0; i < e.cfg.N; i++ {
			if getBit(e.known, uint32(i)*uint32(e.vWords), uint32(slot)) {
				aware++
			}
		}
		res.Victims = append(res.Victims, VictimStat{
			ID:         wire.NodeID(v.idx + 1),
			CrashedAt:  v.at,
			DetectedAt: v.detect,
			Aware:      aware,
		})
		if v.detect >= 0 {
			res.Detected++
		}
	}

	res.StateHash = e.stateHash(&c)
	return res
}

// stateHash folds the final mutable world — per-host counters, energy,
// crash flags, victim knowledge — plus the victim metrics and tallies.
func (e *Engine) stateHash(c *counters) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < e.cfg.N; i++ {
		h = fold(h, uint64(e.seq[i]))
		h = fold(h, floatBits(e.energy[i]))
		if e.crashed[i] {
			h = fold(h, 1)
		}
		kr := uint32(i) * uint32(e.vWords)
		for w := uint32(0); w < uint32(e.vWords); w++ {
			h = fold(h, e.known[kr+w])
		}
	}
	for slot := range e.victims {
		h = fold(h, uint64(e.victims[slot].detect))
	}
	for _, v := range []uint64{c.events, c.sends, c.deliveries, c.dropLoss,
		c.dropDead, c.txBytes, c.rxBytes, c.falsePos, c.rescues} {
		h = fold(h, v)
	}
	return h
}

// --- hashing -------------------------------------------------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fold(h, v uint64) uint64 {
	for b := 0; b < 64; b += 8 {
		h ^= (v >> b) & 0xFF
		h *= fnvPrime
	}
	return h
}

// record adds one send or delivery to the shard's trace: its event's key and
// what happened. The sum wraps and is not an xor, so a record processed twice
// moves it.
func (sh *shardState) record(at sim.Time, owner, seq uint32, kind uint8, aux, bytes uint32) {
	sh.traceSum += recMix(at, owner, seq, kind, aux, bytes)
}

// recMix binds a trace record's six fields into one 64-bit value. It is a
// chain, not a sum of per-field mixes — which would hash the same whichever
// record a field sat in: the key (at, owner, seq), unique to the record, is
// mixed first, so what happened (kind, aux, bytes) is mixed into a state no
// other record has. kind steps the last SplitMix64 as its generator would.
func recMix(at sim.Time, owner, seq uint32, kind uint8, aux, bytes uint32) uint64 {
	const gamma = 0x9E3779B97F4A7C15 // SplitMix64's increment
	h := sim.SplitMix64(uint64(at))
	h = sim.SplitMix64(h ^ (uint64(owner)<<32 | uint64(seq)))
	return sim.SplitMix64((h ^ (uint64(aux)<<32 | uint64(bytes))) + uint64(kind)*gamma)
}

func floatBits(f float64) uint64 {
	return math.Float64bits(f)
}

// liveHeapBytes samples the live heap after a collection; used only for the
// approximate bytes-per-node figure, never for anything determinism-checked.
func liveHeapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
