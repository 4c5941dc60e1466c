package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestRunFiresLikeIndividualEvents walks the run's contract case by case on
// the real kernel, with the expected order written out by hand.
func TestRunFiresLikeIndividualEvents(t *testing.T) {
	k := New(1)
	var got []string
	log := func(s string) { got = append(got, fmt.Sprintf("%d:%s", k.Now(), s)) }
	fire := func(arg any, it RunItem) { log(fmt.Sprintf("%s%d", arg, it.Tag)) }

	// Seqs: a0..a2 take 0-2, the timer takes 3, b0..b1 take 4-5. Everything
	// ties at 5 except a1 (at 7) and b1 (at 9).
	a := &Run{Items: []RunItem{{Off: 5, Tag: 0}, {Off: 7, Tag: 1}, {Off: 5, Tag: 2}}}
	k.ScheduleRun(a, fire, "a")
	k.Schedule(5, func() { log("timer") })
	b := &Run{Items: []RunItem{{Off: 9, Tag: 0}, {Off: 5, Tag: 1}}}
	k.ScheduleRun(b, fire, "b")

	if k.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6 firings (3 heap entries)", k.Pending())
	}
	if at, ok := k.NextEventAt(); !ok || at != 5 {
		t.Fatalf("NextEventAt = %v, %v; want 5", at, ok)
	}

	// A deadline between two items of one run: a's first two items fire (both
	// at 5), its third (at 7) stays queued, and the run resumes later.
	k.RunUntil(6)
	want := []string{"5:a0", "5:a2", "5:timer", "5:b1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after RunUntil(6): got %v, want %v", got, want)
	}
	if k.Steps() != 4 || k.Pending() != 2 || k.Now() != 6 {
		t.Fatalf("Steps, Pending, Now = %d, %d, %v; want 4, 2, 6", k.Steps(), k.Pending(), k.Now())
	}
	if a.Done() || b.Done() {
		t.Fatal("a run reports Done with items unfired")
	}
	// A run is at the root, mid-way: its next item's instant is the answer.
	if at, ok := k.NextEventAt(); !ok || at != 7 {
		t.Fatalf("NextEventAt with a run at the root = %v, %v; want 7", at, ok)
	}
	k.Run()
	want = append(want, "7:a1", "9:b0")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after Run: got %v, want %v", got, want)
	}
	if !a.Done() || !b.Done() || k.Pending() != 0 {
		t.Fatalf("drained: a.Done %v, b.Done %v, Pending %d", a.Done(), b.Done(), k.Pending())
	}
}

func TestRunHandlerSchedulesAndStops(t *testing.T) {
	k := New(1)
	var got []string
	log := func(s string) { got = append(got, fmt.Sprintf("%d:%s", k.Now(), s)) }

	inner := &Run{Items: []RunItem{{Off: 1, Tag: 0}, {Off: 0, Tag: 1}}} // scheduled at 2
	outer := &Run{Items: []RunItem{{Off: 2, Tag: 0}, {Off: 2, Tag: 1}, {Off: 4, Tag: 2}}}
	k.ScheduleRun(outer, func(_ any, it RunItem) {
		log(fmt.Sprintf("outer%d", it.Tag))
		switch it.Tag {
		case 0:
			// Scheduled from inside a firing, for this very instant: they
			// take later seqs than outer1, so they fire after it.
			k.Schedule(0, func() { log("follow-up") })
			k.ScheduleRun(inner, func(_ any, it RunItem) { log(fmt.Sprintf("inner%d", it.Tag)) }, nil)
		case 1:
			k.Stop()
		}
	}, nil)

	k.Run()
	want := []string{"2:outer0", "2:outer1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stop mid-run: got %v, want %v", got, want)
	}
	if k.Pending() != 4 {
		t.Fatalf("Pending after Stop = %d, want 4", k.Pending())
	}
	k.Run()
	want = append(want, "2:follow-up", "2:inner1", "3:inner0", "4:outer2")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed: got %v, want %v", got, want)
	}
}

func TestRunEdges(t *testing.T) {
	k := New(1)
	empty := &Run{}
	k.ScheduleRun(empty, func(any, RunItem) { t.Fatal("empty run fired") }, nil)
	if !empty.Done() || k.Pending() != 0 {
		t.Fatalf("empty run: Done %v, Pending %d", empty.Done(), k.Pending())
	}

	// A Run is reusable once Done, and a stale pos from its last use is reset.
	r := &Run{}
	fired := 0
	for round := 0; round < 3; round++ {
		r.Items = append(r.Items[:0], RunItem{Off: 1}, RunItem{Off: 1})
		k.ScheduleRun(r, func(any, RunItem) { fired++ }, nil)
		k.Run()
	}
	if fired != 6 {
		t.Fatalf("reused run fired %d items, want 6", fired)
	}

	// An item one nanosecond past the end of time is refused; one on it is
	// not.
	end := New(1)
	end.RunUntil(math.MaxInt64 - 5)
	end.ScheduleRun(&Run{Items: []RunItem{{Off: 5}}}, func(any, RunItem) {}, nil)
	for name, fn := range map[string]func(){
		"past the end of time": func() { end.ScheduleRun(&Run{Items: []RunItem{{Off: 5}, {Off: 6}}}, func(any, RunItem) {}, nil) },
		"nil handler":          func() { k.ScheduleRun(&Run{Items: []RunItem{{Off: 1}}}, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRunFarLeadFromFiring schedules, from inside a firing, a run whose first
// item is 4 s out and whose second is at the farthest offset 32 bits hold,
// with a timer between them: the window that lead opens spans seconds, and
// must still fire the timer between the two items.
func TestRunFarLeadFromFiring(t *testing.T) {
	k := New(1)
	var got []string
	log := func(s string) { got = append(got, fmt.Sprintf("%v:%s", k.Now(), s)) }
	k.Schedule(1, func() {
		k.ScheduleRun(&Run{Items: []RunItem{{Off: uint32(4 * time.Second)}, {Off: math.MaxUint32, Tag: 1}}},
			func(_ any, it RunItem) { log(fmt.Sprint("item", it.Tag)) }, nil)
		k.At(Time(4100*time.Millisecond), func() { log("timer") })
	})
	k.Run()
	want := []string{"4.000000001s:item0", "4.1s:timer", "4.294967296s:item1"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// refKernel is the reference the differential test compares against: a flat
// list scanned for its (at, seq) minimum, where a run is nothing but its
// individual events. It shares no code with Kernel.
type refKernel struct {
	now     Time
	seq     uint64
	steps   uint64
	stopped bool
	evs     []*refEvent
	batches map[Time]*[]func()
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	fired    bool
}

func (e *refEvent) Cancel()      { e.canceled = true }
func (e *refEvent) Active() bool { return !e.canceled && !e.fired }

func (r *refKernel) Now() Time { return r.now }

func (r *refKernel) Schedule(d Time, fn func()) handle {
	if d < 0 {
		d = 0
	}
	e := &refEvent{at: r.now + d, seq: r.seq, fn: fn}
	r.seq++
	r.evs = append(r.evs, e)
	return e
}

func (r *refKernel) ScheduleArg(d Time, fn ArgHandler, arg any) handle {
	return r.Schedule(d, func() { fn(arg) })
}

// AtBatched keeps the batch semantics (one event per instant, at the first
// registration's seq): they are AtBatched's contract, not the heap's.
func (r *refKernel) AtBatched(at Time, fn ArgHandler, arg any) {
	if b, ok := r.batches[at]; ok {
		*b = append(*b, func() { fn(arg) })
		return
	}
	b := &[]func(){func() { fn(arg) }}
	r.batches[at] = b
	r.Schedule(at-r.now, func() {
		delete(r.batches, at)
		for _, f := range *b {
			f()
		}
	})
}

func (r *refKernel) run(delays []Time, fire func(i int)) {
	for i, d := range delays {
		r.Schedule(d, func() { fire(i) })
	}
}

// min returns the index of the earliest event, collecting canceled ones that
// have reached the front, as the kernel does.
func (r *refKernel) min() int {
	for len(r.evs) > 0 {
		m := 0
		for i, e := range r.evs {
			if e.at < r.evs[m].at || e.at == r.evs[m].at && e.seq < r.evs[m].seq {
				m = i
			}
		}
		if !r.evs[m].canceled {
			return m
		}
		r.evs = append(r.evs[:m], r.evs[m+1:]...)
	}
	return -1
}

func (r *refKernel) NextEventAt() (Time, bool) {
	if m := r.min(); m >= 0 {
		return r.evs[m].at, true
	}
	return 0, false
}

func (r *refKernel) step(deadline Time, bounded bool) bool {
	m := r.min()
	if m < 0 || bounded && r.evs[m].at > deadline {
		return false
	}
	e := r.evs[m]
	r.evs = append(r.evs[:m], r.evs[m+1:]...)
	r.now, e.fired = e.at, true
	r.steps++
	e.fn()
	return true
}

func (r *refKernel) Run() Time {
	r.stopped = false
	for !r.stopped && r.step(0, false) {
	}
	return r.now
}

func (r *refKernel) RunUntil(deadline Time) Time {
	r.stopped = false
	for !r.stopped && r.step(deadline, true) {
	}
	if !r.stopped && r.now < deadline {
		r.now = deadline
	}
	return r.now
}

func (r *refKernel) Stop()         { r.stopped = true }
func (r *refKernel) Steps() uint64 { return r.steps }
func (r *refKernel) Pending() int  { return len(r.evs) }

// handle is the cancellation surface Timer and refEvent share.
type handle interface {
	Cancel()
	Active() bool
}

// scheduler is what the random program below drives: Kernel through
// realKernel, and refKernel.
type scheduler interface {
	Now() Time
	Schedule(Time, func()) handle
	ScheduleArg(Time, ArgHandler, any) handle
	AtBatched(Time, ArgHandler, any)
	run(delays []Time, fire func(i int))
	NextEventAt() (Time, bool)
	Run() Time
	RunUntil(Time) Time
	Stop()
	Steps() uint64
	Pending() int
}

type realKernel struct {
	*Kernel
	t *testing.T
	c *windowCases // nil: nothing counted
}

// windowCases counts how often the differential programs drive the kernel's
// delivery window down each path it has (see Kernel.gather and merge).
type windowCases struct {
	mergedInFiring int // a run scheduled from a firing lands in the open window
	mergedBetween  int // a run scheduled between drains lands in it
	leftOpen       int // a RunUntil deadline or a Stop leaves it open
	halved         int // a window narrowed to stay within winCap
	instantOverCap int // one instant holds more than winCap items
	start, last    Time
	seen           bool
}

// sawFiring notes a window gathered since the last firing: the kernel fires
// a new window's head at once, so its contents are still as gathered.
func (c *windowCases) sawFiring(k *Kernel) {
	if k.head == 0 || c.seen && k.winStart == c.start && k.winLast == c.last {
		return
	}
	c.start, c.last, c.seen = k.winStart, k.winLast, true
	if k.winLast-k.winStart+1 < k.width {
		c.halved++
	}
	if k.winLast == k.winStart && len(k.win) > k.winCap {
		c.instantOverCap++
	}
}

func (r realKernel) Schedule(d Time, fn func()) handle { return r.Kernel.Schedule(d, fn) }
func (r realKernel) ScheduleArg(d Time, fn ArgHandler, arg any) handle {
	return r.Kernel.ScheduleArg(d, fn, arg)
}

func (r realKernel) run(delays []Time, fire func(i int)) {
	run := &Run{}
	for i, d := range delays {
		run.Items = append(run.Items, RunItem{Off: uint32(d), Tag: uint32(i)})
	}
	if r.c != nil && len(delays) > 0 && r.head < len(r.win) && r.Now()+slices.Min(delays) <= r.winLast {
		if r.firing {
			r.c.mergedInFiring++
		} else {
			r.c.mergedBetween++
		}
	}
	fired := 0
	r.ScheduleRun(run, func(arg any, it RunItem) {
		if arg != run {
			r.t.Error("run handler got a foreign arg")
		}
		if fired++; run.Done() != (fired == len(delays)) {
			r.t.Errorf("Done = %v after %d of %d items", run.Done(), fired, len(delays))
		}
		fire(int(it.Tag))
	}, run)
}

// program is one random workload, replayable against any scheduler: every
// choice comes from its own seeded source, never from the scheduler, so two
// schedulers that fire in the same order execute the same program.
type program struct {
	s       scheduler
	rng     *rand.Rand
	span    int  // delays are drawn from [0, span)
	lead    Time // added to every run item's delay
	nextID  int
	budget  int // firings that may still schedule more work
	handles []handle
	log     []string
}

// delay draws from a small domain: at tieSpan, `at` ties — between runs,
// within a run, against timers and batches — are the common case.
func (p *program) delay() Time { return Time(p.rng.Intn(p.span)) }

const tieSpan = 6

func (p *program) fired(id int) {
	if rk, ok := p.s.(realKernel); ok && rk.c != nil {
		rk.c.sawFiring(rk.Kernel)
	}
	next, ok := p.s.NextEventAt()
	p.log = append(p.log, fmt.Sprintf("t=%d id=%d steps=%d pending=%d next=%d/%v",
		p.s.Now(), id, p.s.Steps(), p.s.Pending(), next, ok))
	if p.budget <= 0 {
		return
	}
	p.budget--
	switch p.rng.Intn(10) {
	case 0, 1, 2:
		p.act()
	case 3:
		p.act()
		p.act()
	case 4:
		p.s.Stop()
	}
}

// act performs one random scheduling operation.
func (p *program) act() {
	id := p.nextID
	p.nextID++
	switch p.rng.Intn(6) {
	case 0:
		p.handles = append(p.handles, p.s.Schedule(p.delay(), func() { p.fired(id) }))
	case 1:
		p.handles = append(p.handles, p.s.ScheduleArg(p.delay(), func(any) { p.fired(id) }, nil))
	case 2:
		p.s.AtBatched(p.s.Now()+p.delay(), func(any) { p.fired(id) }, nil)
	case 3:
		if len(p.handles) > 0 {
			h := p.handles[p.rng.Intn(len(p.handles))]
			p.log = append(p.log, fmt.Sprintf("cancel active=%v", h.Active()))
			h.Cancel()
		}
	default:
		delays := make([]Time, p.rng.Intn(30))
		for i := range delays {
			delays[i] = p.lead + p.delay()
		}
		base := p.nextID
		p.nextID += len(delays)
		p.s.run(delays, func(i int) { p.fired(base + i) })
	}
}

// drive runs the program: bursts of top-level scheduling, each followed by a
// bounded or unbounded drain that a handler may cut short with Stop.
func (p *program) drive() []string {
	for round := 0; round < 12; round++ {
		for i := p.rng.Intn(8); i >= 0; i-- {
			p.act()
		}
		if p.rng.Intn(3) == 0 {
			p.s.Run()
		} else {
			p.s.RunUntil(p.s.Now() + p.delay())
		}
		if rk, ok := p.s.(realKernel); ok && rk.c != nil && rk.head < len(rk.win) {
			rk.c.leftOpen++
		}
		next, ok := p.s.NextEventAt()
		p.log = append(p.log, fmt.Sprintf("drained t=%d steps=%d pending=%d next=%d/%v",
			p.s.Now(), p.s.Steps(), p.s.Pending(), next, ok))
	}
	p.budget = 0
	p.s.Run()
	p.log = append(p.log, fmt.Sprintf("end t=%d steps=%d pending=%d", p.s.Now(), p.s.Steps(), p.s.Pending()))
	return p.log
}

// TestRunDifferentialOrder is the property behind ScheduleRun's doc: a random
// mix of Schedule, ScheduleArg, AtBatched, cancellations and runs — scheduled
// from the top level and from inside firings, drained by Run and by RunUntil
// deadlines that land mid-run, interrupted by Stop — fires on the kernel in
// exactly the order, with the same Steps, Pending and NextEventAt at every
// firing, as on a reference that knows only individual events.
//
// The seeds also vary what the kernel's delivery windows see: a third of the
// programs give every run item a lead of 2, so windows span more than one
// instant, and most run with a window cap of 1 to 4 items. The test counts
// the window paths the programs reach — a run landing in the open window from
// inside a firing and from between drains, a drain that leaves a window open,
// a window narrowed to the cap, an instant holding more than the cap — and
// fails if any is never reached.
func TestRunDifferentialOrder(t *testing.T) {
	var cases windowCases
	for seed := int64(1); seed <= 300; seed++ {
		k := New(seed)
		if seed%5 != 0 {
			k.winCap = 1 + int(seed%4)
		}
		progs := [2]*program{
			{s: realKernel{k, t, &cases}},
			{s: &refKernel{batches: map[Time]*[]func(){}}},
		}
		var logs [2][]string
		for i, p := range progs {
			p.rng = rand.New(rand.NewSource(seed))
			p.span = tieSpan
			if seed%3 == 1 {
				p.lead = 2
			}
			p.budget = 200
			logs[i] = p.drive()
		}
		if len(logs[0]) < 20 {
			t.Fatalf("seed %d: program logged only %d lines", seed, len(logs[0]))
		}
		for i := range min(len(logs[0]), len(logs[1])) {
			if logs[0][i] != logs[1][i] {
				t.Fatalf("seed %d: line %d differs\nkernel:    %s\nreference: %s", seed, i, logs[0][i], logs[1][i])
			}
		}
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("seed %d: kernel logged %d lines, reference %d", seed, len(logs[0]), len(logs[1]))
		}
	}
	t.Logf("window paths: %d merged in a firing, %d merged between drains, %d left open, %d halved, %d instants over the cap",
		cases.mergedInFiring, cases.mergedBetween, cases.leftOpen, cases.halved, cases.instantOverCap)
	if cases.mergedInFiring == 0 || cases.mergedBetween == 0 || cases.leftOpen == 0 || cases.halved == 0 || cases.instantOverCap == 0 {
		t.Errorf("the programs never reached a window path the test is for: %+v", cases)
	}
}

// TestRunUntilIncrementsMatchRun drains the differential test's 300 programs a
// second way: one kernel by Run, its twin by RunUntil in small seeded
// increments, the way a live driver advances an idle daemon. RunUntil decides
// from the root's heap slot alone whether anything is due, so the cases that
// matter are a deadline that leaves a canceled root in place (later than the
// deadline), one that reaches a canceled root but not the live event behind
// it, and one that falls exactly on an event's instant — the test counts all
// three to be sure the programs produce them. Both kernels must fire the same
// events in the same order with the same Steps, Pending and NextEventAt at
// each firing; a RunUntil may never run past its deadline; and every event the
// kernel allocated is in the heap or on the free list whenever control is back
// at the top level, and on the free list once the queue has drained: a
// canceled root that a deadline stopped short of is collected later, not lost.
// Odd seeds spread their delays out, so that most increments find nothing due
// and a canceled event is often the earliest one left.
func TestRunUntilIncrementsMatchRun(t *testing.T) {
	freeLen := func(k *Kernel) (n int) {
		for ev := k.free; ev != nil; ev = ev.next {
			n++
		}
		return n
	}
	const block = 64 // events per allocation in Kernel.alloc
	var keptCanceledRoot, reachedCanceledRoot, onInstant int
	for seed := int64(1); seed <= 300; seed++ {
		var logs [2][]string
		var ks [2]*Kernel
		for i := range ks {
			k := New(seed)
			ks[i] = k
			p := &program{s: realKernel{Kernel: k, t: t}, rng: rand.New(rand.NewSource(seed)), span: tieSpan, budget: 200}
			if seed%2 == 1 {
				p.span = 40
			}
			for n := 0; n < 12; n++ {
				p.act()
			}
			if i == 0 {
				for k.Pending() > 0 { // a handler's Stop ends a Run early
					k.Run()
				}
			} else {
				inc := rand.New(rand.NewSource(seed))
				for k.Pending() > 0 {
					deadline := k.Now() + Time(inc.Intn(4))
					if k.queue.len() > 0 {
						switch root := k.queue.a[0]; {
						case root.ev.canceled && root.at <= deadline:
							reachedCanceledRoot++
						case !root.ev.canceled && root.at == deadline:
							onInstant++
						}
					}
					k.RunUntil(deadline)
					if k.Now() > deadline || !k.stopped && k.Now() != deadline {
						t.Fatalf("seed %d: RunUntil(%d) ended at %d (stopped=%v)", seed, deadline, k.Now(), k.stopped)
					}
					if k.queue.len() > 0 && k.queue.a[0].ev.canceled && k.queue.a[0].at > deadline {
						keptCanceledRoot++
					}
					if held := k.queue.len() + freeLen(k); held%block != 0 {
						t.Fatalf("seed %d: %d events in the heap or free at t=%d, not a whole number of blocks: one leaked", seed, held, k.Now())
					}
				}
				if n := freeLen(k); k.queue.len() != 0 || n == 0 || n%block != 0 {
					t.Fatalf("seed %d: drained kernel holds %d heap entries and %d free events", seed, k.queue.len(), n)
				}
			}
			logs[i] = p.log
		}
		if len(logs[0]) < 10 {
			t.Fatalf("seed %d: program logged only %d lines", seed, len(logs[0]))
		}
		if !slices.Equal(logs[0], logs[1]) {
			for i := range min(len(logs[0]), len(logs[1])) {
				if logs[0][i] != logs[1][i] {
					t.Fatalf("seed %d: line %d differs\nRun:      %s\nRunUntil: %s", seed, i, logs[0][i], logs[1][i])
				}
			}
			t.Fatalf("seed %d: Run logged %d lines, RunUntil %d", seed, len(logs[0]), len(logs[1]))
		}
		if ks[0].Steps() != ks[1].Steps() || ks[1].Now() < ks[0].Now() {
			t.Fatalf("seed %d: Run ended at t=%d after %d steps, RunUntil at t=%d after %d",
				seed, ks[0].Now(), ks[0].Steps(), ks[1].Now(), ks[1].Steps())
		}
	}
	if keptCanceledRoot == 0 || reachedCanceledRoot == 0 || onInstant == 0 {
		t.Errorf("the programs never produced a case the test is for: %d deadlines short of a canceled root, %d past one, %d on a live event's instant",
			keptCanceledRoot, reachedCanceledRoot, onInstant)
	}
}

// runShapes are the item distributions the run's sort must order exactly as
// the reference does, whatever route they take through it: delays from now,
// each inside the 32 bits an item's offset holds, returned in the order the
// items are appended.
var runShapes = []struct {
	name   string
	delays func(rng *rand.Rand, n int) []Time
}{
	{"all equal", func(_ *rand.Rand, n int) []Time {
		d := make([]Time, n)
		for i := range d {
			d[i] = 7
		}
		return d
	}},
	// Everything inside 1 us except one item at the farthest offset: by
	// time, one bucket holds all but one item.
	{"clustered with an outlier", func(rng *rand.Rand, n int) []Time {
		d := spread(rng, n, 1000)
		d[rng.Intn(n)] = maxWidth
		return d
	}},
	// Each item twice as far out as the one before it, wrapping at 2^31:
	// every level of the distribution peels off a few and leaves the rest in
	// its first bucket.
	{"geometric", func(rng *rand.Rand, n int) []Time {
		d := make([]Time, n)
		for i := range d {
			d[i] = Time(1) << (i % 32)
		}
		rng.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
		return d
	}},
	{"span 1ns", func(rng *rand.Rand, n int) []Time { return spread(rng, n, 1) }},
	{"span 11ms", func(rng *rand.Rand, n int) []Time { return spread(rng, n, int64(11*time.Millisecond)) }},
	{"span 2^31ns", func(rng *rand.Rand, n int) []Time { return spread(rng, n, 1<<31) }},
	{"span every offset", func(rng *rand.Rand, n int) []Time { return spread(rng, n, math.MaxUint32) }},
}

// spread returns n delays drawn from [0, span], each end at least once.
func spread(rng *rand.Rand, n int, span int64) []Time {
	d := make([]Time, n)
	for i := range d {
		d[i] = Time(rng.Int63n(span/2+1) + rng.Int63n(span-span/2+1))
	}
	d[0], d[n-1] = 0, Time(span)
	rng.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// TestRunSortMatchesReference takes every shape at the sizes on either side of
// the insertion-only limit and well past it, as a run, a timer and a second
// run over the same instants, and compares the firing order — ties within a
// run, between the runs and against the timer included — with the reference
// kernel, which knows nothing of runs or sorting. (The reference finds each
// next event by scanning all of them, so the largest size goes without the
// second run: a quarter of the scanning.)
func TestRunSortMatchesReference(t *testing.T) {
	for _, shape := range runShapes {
		for _, n := range []int{insertLimit, insertLimit + 1, 100, 4096} {
			delays := shape.delays(rand.New(rand.NewSource(int64(n))), n)
			var logs [2][]string
			for i, s := range []scheduler{realKernel{Kernel: New(1), t: t}, &refKernel{batches: map[Time]*[]func(){}}} {
				note := func(id string) {
					logs[i] = append(logs[i], fmt.Sprintf("t=%d %s steps=%d pending=%d", s.Now(), id, s.Steps(), s.Pending()))
				}
				s.run(delays, func(j int) { note(fmt.Sprint("a", j)) })
				s.Schedule(delays[n/2], func() { note("timer") })
				if n <= 100 {
					s.run(delays, func(j int) { note(fmt.Sprint("b", j)) })
				}
				s.Run()
			}
			if len(logs[0]) < n+1 || len(logs[0]) != len(logs[1]) {
				t.Fatalf("%s, n=%d: kernel logged %d firings, reference %d", shape.name, n, len(logs[0]), len(logs[1]))
			}
			for i := range logs[0] {
				if logs[0][i] != logs[1][i] {
					t.Fatalf("%s, n=%d: firing %d differs\nkernel:    %s\nreference: %s", shape.name, n, i, logs[0][i], logs[1][i])
				}
			}
		}
	}
}

// TestRunSortWorstCaseIsNotQuadratic counts steps instead of timing them. The
// sort is distribute, then one insertion pass; the pass moves an item once
// per inversion left, so counting the inversions distribute leaves is
// counting the pass's work. On the shapes built to defeat a single level of
// buckets it must stay within insertLimit per item — the bound distribute
// promises — where a pass over the undistributed items would need ~n²/4.
func TestRunSortWorstCaseIsNotQuadratic(t *testing.T) {
	const n = 1 << 16
	for _, shape := range runShapes {
		delays := shape.delays(rand.New(rand.NewSource(1)), n)
		items := make([]RunItem, n)
		for i, d := range delays {
			items[i] = RunItem{Off: uint32(d), Tag: uint32(i)}
		}
		want := slices.Clone(items)
		slices.SortStableFunc(want, func(a, b RunItem) int { return cmp.Compare(a.Off, b.Off) })

		k := New(1)
		k.distribute(items)
		moves := 0
		for i := 1; i < n; i++ {
			for j := i; j > 0 && items[j-1].Off > items[j].Off; j-- {
				items[j-1], items[j] = items[j], items[j-1]
				moves++
			}
		}
		if moves > insertLimit*n {
			t.Errorf("%s: %d moves left to the insertion pass for %d items, want at most %d", shape.name, moves, n, insertLimit*n)
		}
		if !slices.Equal(items, want) {
			t.Errorf("%s: distribute + insertion is not the stable order by Off", shape.name)
		}
	}
}

// TestWindowSortWorstCaseIsNotQuadratic does for the delivery window's sort
// what TestRunSortWorstCaseIsNotQuadratic does for the run's: the same shapes,
// dealt out as runs of 90 items (each sorted, as ScheduleRun leaves it) and
// distributed into one window, must leave the insertion pass at most
// insertLimit moves per item, and the pass must finish the (at, seq) order. A
// window is at most maxWidth wide, so a shape that spans every offset is
// halved into it, which turns its finest structure into ties.
func TestWindowSortWorstCaseIsNotQuadratic(t *testing.T) {
	const n, fan = 1 << 16, 90
	for _, shape := range runShapes {
		delays := shape.delays(rand.New(rand.NewSource(1)), n)
		hi := slices.Max(delays)
		sh := max(0, bits.Len64(uint64(hi))-31)
		k := New(1)
		var want []RunItem
		for start := 0; start < n; start += fan {
			r := &Run{seq: uint64(start)}
			for i := start; i < min(start+fan, n); i++ {
				r.Items = append(r.Items, RunItem{Off: uint32(delays[i] >> sh), Tag: uint32(i)})
			}
			k.sortItems(r.Items)
			k.winRuns = append(k.winRuns, r)
			want = append(want, r.Items...)
		}
		// Runs are numbered in seq order and all scheduled at 0, so a stable
		// sort by Off alone is the (at, seq) order.
		slices.SortStableFunc(want, func(a, b RunItem) int { return cmp.Compare(a.Off, b.Off) })

		k.distributeWindow(0, hi>>sh, n)
		win := k.win
		moves := 0
		for i := 1; i < n; i++ {
			for j := i; j > 0 && k.winBefore(win[j], win[j-1]); j-- {
				win[j-1], win[j] = win[j], win[j-1]
				moves++
			}
		}
		if moves > insertLimit*n {
			t.Errorf("%s: %d moves left to the insertion pass for %d items, want at most %d", shape.name, moves, n, insertLimit*n)
		}
		got := make([]RunItem, 0, n)
		next := make([]int, len(k.winRuns))
		for _, e := range win {
			got = append(got, k.winRuns[e.Tag].Items[next[e.Tag]])
			next[e.Tag]++
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: distributeWindow + insertion is not the (at, seq) order", shape.name)
		}
	}
}
