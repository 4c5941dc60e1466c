package shard

import (
	"math/rand"
	"sort"
	"testing"

	"clusterfds/internal/sim"
)

// refQueue is the differential test's oracle: every pending event in one
// slice kept in key order.
type refQueue []ev

func (r *refQueue) push(e ev) {
	i := sort.Search(len(*r), func(i int) bool { return e.less(&(*r)[i]) })
	*r = append(*r, ev{})
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = e
}

func (r *refQueue) pop() ev {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// queueProgram drives an evQueue and the reference through the same seeded
// sequence of operations and compares them after every one.
type queueProgram struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	q    evQueue
	ref  refQueue
	now  sim.Time // the last popped instant
	seq  uint32   // makes every key unique

	minDelay, maxDelay sim.Time

	// What the program has exercised, by the queue's own state at the time.
	nearPushes, beforeOpen, edgePushes, farPushes, tiePushes int
	farDrawn, idleGaps, crowded                              int
	firstOpen                                                int64
}

func (p *queueProgram) width() sim.Time { return 1 << p.q.shift }

func (p *queueProgram) push(at sim.Time) {
	if at < 0 {
		at = 0
	}
	e := ev{at: at, owner: uint32(p.rng.Intn(4)), seq: p.seq, kind: dReport, aux: uint32(p.rng.Intn(1000))}
	p.seq++
	switch b := int64(at) >> p.q.shift; {
	case b < p.q.openB:
		p.beforeOpen++
	case b == p.q.openB:
		p.nearPushes++
	case b-p.q.openB > int64(len(p.q.ring)):
		p.farPushes++
	}
	if p.q.shift > 0 && at&(p.width()-1) == 0 {
		p.edgePushes++
	}
	p.q.push(e)
	p.ref.push(e)
	p.check("push")
}

func (p *queueProgram) pop() {
	if len(p.ref) == 0 {
		return
	}
	farBefore, openBefore := p.q.far.len(), p.q.openB
	got, want := p.q.pop(), p.ref.pop()
	if got != want {
		p.t.Fatalf("seed %d: pop = %+v, reference %+v", p.seed, got, want)
	}
	if p.q.openB != openBefore {
		if p.q.far.len() < farBefore {
			p.farDrawn++
		}
		if p.q.openB-openBefore > int64(len(p.q.ring)) && openBefore >= 0 {
			p.idleGaps++
		}
		if len(p.q.open) > 2*chunkLen {
			p.crowded++
		}
	}
	p.now = got.at
	p.check("pop")
}

func (p *queueProgram) check(after string) {
	if p.q.len() != len(p.ref) {
		p.t.Fatalf("seed %d: after %s len = %d, reference %d", p.seed, after, p.q.len(), len(p.ref))
	}
	mt, ok := p.q.minTime()
	if ok != (len(p.ref) > 0) || ok && mt != p.ref[0].at {
		p.t.Fatalf("seed %d: after %s minTime = %d/%v, reference holds %d with head %+v",
			p.seed, after, mt, ok, len(p.ref), p.ref[:min(1, len(p.ref))])
	}
}

// delivery is the traffic the queue is shaped for.
func (p *queueProgram) delivery() sim.Time {
	return p.now + p.minDelay + sim.Time(p.rng.Int63n(int64(p.maxDelay-p.minDelay)+1))
}

func (p *queueProgram) act() {
	ring := sim.Time(len(p.q.ring)) * p.width()
	switch p.rng.Intn(20) {
	case 0: // same instant as the event being processed
		p.push(p.now)
	case 1: // elsewhere in the open bucket, or just before it
		p.push(p.now - p.width() + sim.Time(p.rng.Int63n(int64(2*p.width()))))
	case 2: // exactly on a bucket edge, up to one past the ring's last
		b := (int64(p.now)>>p.q.shift + int64(p.rng.Intn(len(p.q.ring)+3)))
		p.push(sim.Time(b << p.q.shift))
	case 3: // just beyond the ring's horizon, and far beyond it
		p.push(p.now + ring + sim.Time(p.rng.Int63n(int64(ring))))
		p.push(p.now + 40*ring + sim.Time(p.rng.Int63n(int64(ring))))
	case 4: // one instant, several owners and seqs, sometimes a crowd
		at := p.delivery()
		n := 2 + p.rng.Intn(6)
		if p.rng.Intn(4) == 0 {
			n = 3 * insertLimit
		}
		for i := 0; i < n; i++ {
			p.push(at)
			p.tiePushes++
		}
	case 5: // a broadcast's worth of deliveries
		for i := p.rng.Intn(80); i >= 0; i-- {
			p.push(p.delivery())
		}
	case 6, 7, 8: // drain for a while, whatever lies ahead
		for i := p.rng.Intn(60); i >= 0; i-- {
			p.pop()
		}
	default:
		p.push(p.delivery())
		p.pop()
	}
}

// TestQueueDifferentialOrder is the property the engine's determinism rests
// on: whatever is pushed, in whatever order, into whichever tier, evQueue
// pops exactly what a flat sorted slice pops, and len and minTime agree with
// it after every operation — minTime to the nanosecond, since sim.RunWindows
// places window edges on it. The programs cover pushes into the open bucket
// and before it, exactly on bucket edges, beyond the ring's horizon, many
// events on one instant, a ring that wraps several times, idle gaps longer
// than the ring, buckets of several chunks, and radios from one fixed delay
// to MaxDelay = 100 x MinDelay and beyond what the ring is allowed to span;
// the counters at the end make sure they did.
func TestQueueDifferentialOrder(t *testing.T) {
	radios := [][2]sim.Time{
		{1e6, 12e6},   // radio.Defaults
		{1000, 100e3}, // MaxDelay = 100 x MinDelay
		{5, 5},        // one fixed delay
		{1, 40},       // one-nanosecond buckets
		{3, 1e6},      // more windows than maxRing: deliveries reach far
		{700, 9000},
	}
	var total queueProgram
	wraps := 0
	for seed := int64(1); seed <= 360; seed++ {
		r := radios[seed%int64(len(radios))]
		p := &queueProgram{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), minDelay: r[0], maxDelay: r[1], firstOpen: -1}
		p.q.init(r[0], r[1])
		p.check("init")
		if seed%10 == 0 { // a busy shard: several chunks per bucket
			for i := 0; i < 20*chunkLen; i++ {
				p.push(p.delivery())
			}
		}
		for i := 0; i < 400; i++ {
			p.act()
			if p.firstOpen < 0 {
				p.firstOpen = p.q.openB
			}
		}
		for len(p.ref) > 0 {
			p.pop()
		}
		if (p.q.openB-p.firstOpen)/int64(len(p.q.ring)) >= 2 {
			wraps++
		}
		total.nearPushes += p.nearPushes
		total.beforeOpen += p.beforeOpen
		total.edgePushes += p.edgePushes
		total.farPushes += p.farPushes
		total.tiePushes += p.tiePushes
		total.farDrawn += p.farDrawn
		total.idleGaps += p.idleGaps
		total.crowded += p.crowded
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"pushes into the open bucket", total.nearPushes},
		{"pushes before the open bucket", total.beforeOpen},
		{"pushes on a bucket edge", total.edgePushes},
		{"pushes beyond the ring", total.farPushes},
		{"pushes sharing an instant", total.tiePushes},
		{"buckets that drew from far", total.farDrawn},
		{"idle gaps longer than the ring", total.idleGaps},
		{"buckets of more than two chunks", total.crowded},
		{"programs that wrapped the ring twice", wraps},
	} {
		t.Logf("%d %s", c.n, c.what)
		if c.n < 50 {
			t.Errorf("only %d %s: the programs no longer reach that case", c.n, c.what)
		}
	}
}

// TestQueueRingHoldsEveryDelivery pins the sizing rule: with the default
// radio an event processed anywhere in the open bucket schedules its latest
// delivery inside the ring, so far sees timers only.
func TestQueueRingHoldsEveryDelivery(t *testing.T) {
	var q evQueue
	q.init(1e6, 12e6)
	if w := sim.Time(1) << q.shift; w < 1e6 || w >= 2e6 {
		t.Fatalf("bucket width %d ns, want the power of two covering a 1 ms window", w)
	}
	q.push(ev{at: 5<<q.shift - 1})
	q.pop() // opens bucket 4; its last instant is being processed
	q.push(ev{at: 5<<q.shift - 1 + 12e6})
	if q.far.len() != 0 || q.ringN != 1 {
		t.Fatalf("latest delivery went to far (ring %d buckets of %d ns)", len(q.ring), 1<<q.shift)
	}
}

// BenchmarkShardQueue is the queue in the steady state of a relay wave: 10^5
// events in flight, each pop followed by one push a delivery delay (1–12 ms,
// uniform) ahead. The heap the queue replaced runs the same program beside
// it. Steady state allocates nothing: chunks come off the free list and the
// open bucket's slice has reached its size.
func BenchmarkShardQueue(b *testing.B) {
	const inFlight, minDelay, maxDelay = 100_000, 1e6, 12e6
	delay := func(rng *sim.Stream) sim.Time { return minDelay + sim.Time(rng.Int63n(maxDelay-minDelay+1)) }
	type queue interface {
		push(ev)
		pop() ev
	}
	run := func(newQueue func() queue) func(*testing.B) {
		return func(b *testing.B) {
			q := newQueue()
			rng := sim.NewStream(1)
			for i := 0; i < inFlight; i++ {
				q.push(ev{at: delay(&rng), owner: uint32(i), kind: dReport})
			}
			step := func() {
				e := q.pop()
				e.at += delay(&rng)
				e.seq++
				q.push(e)
			}
			for i := 0; i < 5*inFlight; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		}
	}
	b.Run("queue", run(func() queue {
		q := new(evQueue)
		q.init(minDelay, maxDelay)
		return q
	}))
	b.Run("heap", run(func() queue { return new(evHeap) }))
}
