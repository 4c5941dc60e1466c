package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at same instant fired out of scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	var fired []Time
	k.Schedule(time.Second, func() {
		fired = append(fired, k.Now())
		k.Schedule(time.Second, func() {
			fired = append(fired, k.Now())
		})
	})
	k.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v, want [1s 2s]", fired)
	}
}

func TestZeroAndNegativeDelay(t *testing.T) {
	k := New(1)
	ran := 0
	k.Schedule(0, func() { ran++ })
	k.Schedule(-5*time.Second, func() { ran++ })
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

// TestDelaySaturatesAtTheEndOfTime schedules past math.MaxInt64 from a
// non-zero now: the event must land at the end of time, after everything
// nearer, and never wrap into the past. A run scheduled 100 ns before the
// end, with items at the last two instants, opens a delivery window whose
// end would overflow the same way.
func TestDelaySaturatesAtTheEndOfTime(t *testing.T) {
	k := New(1)
	k.RunUntil(5)
	var got []string
	note := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, k.Now())) }
	fire := func(_ any, it RunItem) { note(fmt.Sprint("run", it.Tag)) }
	k.Schedule(math.MaxInt64, func() { note("far") })
	k.ScheduleArg(math.MaxInt64-4, func(any) { note("farArg") }, nil)
	k.At(10, func() { note("near") })
	k.ScheduleRun(&Run{Items: []RunItem{{Off: 2, Tag: 2}}}, fire, nil)
	k.At(math.MaxInt64-100, func() {
		k.ScheduleRun(&Run{Items: []RunItem{{Off: 100}, {Off: 99, Tag: 1}}}, fire, nil)
	})
	k.Run()
	want := []string{
		"run2@7", "near@10",
		fmt.Sprintf("run1@%d", int64(math.MaxInt64-1)),
		fmt.Sprintf("far@%d", int64(math.MaxInt64)),
		fmt.Sprintf("farArg@%d", int64(math.MaxInt64)),
		fmt.Sprintf("run0@%d", int64(math.MaxInt64)),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestTimerCancel(t *testing.T) {
	k := New(1)
	ran := false
	tm := k.Schedule(time.Second, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("timer should be inactive after cancel")
	}
	k.Run()
	if ran {
		t.Fatal("canceled timer fired")
	}
	// Cancel after run is a no-op.
	tm.Cancel()
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	tm.Cancel()
	if tm.Active() {
		t.Fatal("zero timer should be inactive")
	}
}

func TestTimerActiveLifecycle(t *testing.T) {
	k := New(1)
	var tm Timer
	tm = k.Schedule(time.Second, func() {
		if tm.Active() {
			t.Error("timer should not be active while firing")
		}
	})
	k.Run()
	if tm.Active() {
		t.Error("timer should be inactive after firing")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []int
	k.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	k.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	k.Schedule(3*time.Second, func() { fired = append(fired, 3) })

	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("after RunUntil(2s): fired = %v, want [1 2]", fired)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}

	// Resume.
	k.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("after resume: fired = %v, want [1 2 3]", fired)
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s (clock advances to deadline)", k.Now())
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := New(1)
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	var fired []int
	k.Schedule(1*time.Second, func() {
		fired = append(fired, 1)
		k.Stop()
	})
	k.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	k.Run()
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	// The stopped flag resets on the next Run.
	k.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

func TestAt(t *testing.T) {
	k := New(1)
	var at Time
	k.Schedule(time.Second, func() {
		k.At(5*time.Second, func() { at = k.Now() })
	})
	k.Run()
	if at != 5*time.Second {
		t.Fatalf("At fired at %v, want 5s", at)
	}
}

func TestAtPastPanics(t *testing.T) {
	k := New(1)
	k.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past should panic")
			}
		}()
		k.At(500*time.Millisecond, func() {})
	})
	k.Run()
}

func TestScheduleNilPanics(t *testing.T) {
	k := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) should panic")
		}
	}()
	k.Schedule(time.Second, nil)
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		k := New(seed)
		var out []int64
		var tick func()
		n := 0
		tick = func() {
			out = append(out, int64(k.Now()), k.Rand().Int63n(1000))
			n++
			if n < 50 {
				k.Schedule(Time(k.Rand().Int63n(int64(time.Second))), tick)
			}
		}
		k.Schedule(0, tick)
		k.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestSteps(t *testing.T) {
	k := New(1)
	for i := 0; i < 7; i++ {
		k.Schedule(Time(i)*time.Second, func() {})
	}
	canceled := k.Schedule(8*time.Second, func() {})
	canceled.Cancel()
	k.Run()
	if k.Steps() != 7 {
		t.Fatalf("Steps = %d, want 7 (canceled events do not count)", k.Steps())
	}
}

// TestQueueOrderProperty drives the kernel with random delays and checks
// events always fire in nondecreasing time order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := New(seed)
		var times []Time
		for _, r := range raw {
			d := Time(r % 1e9)
			k.Schedule(d, func() { times = append(times, k.Now()) })
		}
		k.Run()
		if len(times) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEventPoolStaleHandles checks the free-list recycler: a Timer handle
// whose event has fired (and been recycled into a NEW event) must stay
// inert — Cancel on it must not touch the recycled occupant, and Active
// must report false.
func TestEventPoolStaleHandles(t *testing.T) {
	k := New(1)
	fired := 0
	tm1 := k.Schedule(1, func() { fired++ })
	k.Run()
	if tm1.Active() {
		t.Error("fired timer still active")
	}
	// The pool guarantees this Schedule reuses tm1's event object.
	tm2 := k.Schedule(1, func() { fired += 10 })
	tm1.Cancel() // stale handle: must be a no-op
	if !tm2.Active() {
		t.Fatal("stale Cancel killed a recycled event")
	}
	k.Run()
	if fired != 11 {
		t.Errorf("fired = %d, want 11", fired)
	}
}

// TestEventPoolCanceledRelease checks canceled events are recycled through
// both the step() and peekTime() collection paths without disturbing
// later events.
func TestEventPoolCanceledRelease(t *testing.T) {
	k := New(1)
	ran := 0
	c1 := k.Schedule(1, func() { ran += 100 })
	k.Schedule(2, func() { ran++ })
	c1.Cancel()
	k.RunUntil(5) // collects the canceled event via peekTime
	c2 := k.Schedule(1, func() { ran += 100 })
	k.Schedule(2, func() { ran++ })
	c2.Cancel()
	k.Run() // collects via step
	if ran != 2 {
		t.Errorf("ran = %d, want 2 (canceled handlers must not fire)", ran)
	}
	if c1.Active() || c2.Active() {
		t.Error("canceled timers report active")
	}
}

// TestEventPoolReusePreservesOrder floods the kernel with self-rescheduling
// chains (the heartbeat pattern) and checks FIFO tie-breaking survives
// event reuse.
func TestEventPoolReusePreservesOrder(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		var tick func()
		rounds := 0
		tick = func() {
			order = append(order, i)
			rounds++
			if rounds < 50 {
				k.Schedule(10, tick)
			}
		}
		k.Schedule(10, tick)
	}
	k.Run()
	if len(order) != 8*50 {
		t.Fatalf("fired %d events, want %d", len(order), 8*50)
	}
	for r := 0; r < 50; r++ {
		for i := 0; i < 8; i++ {
			if order[r*8+i] != i {
				t.Fatalf("round %d: position %d fired chain %d (FIFO broken by pooling)", r, i, order[r*8+i])
			}
		}
	}
}

// TestQuadHeapStressWithCancels hammers the hand-rolled 4-ary heap with a
// mixed workload — random delays (many duplicates to exercise seq
// tie-breaks), interleaved cancellations, and nested rescheduling — and
// checks every surviving event fires in nondecreasing time with FIFO order
// inside each instant. This is the direct regression net for the
// container/heap -> 4-ary rewrite: (at, seq) is a strict total order, so any
// correct heap must pop in exactly this order.
func TestQuadHeapStressWithCancels(t *testing.T) {
	k := New(99)
	rng := rand.New(rand.NewSource(99))
	type fired struct {
		at  Time
		seq int
	}
	var got []fired
	var timers []Timer
	n := 0
	for i := 0; i < 3000; i++ {
		d := Time(rng.Intn(50)) * time.Millisecond // heavy tie density
		seq := n
		n++
		tm := k.Schedule(d, func() { got = append(got, fired{k.Now(), seq}) })
		timers = append(timers, tm)
	}
	// Cancel a third of them, including some already-popped edge positions.
	canceled := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		j := rng.Intn(len(timers))
		timers[j].Cancel()
		canceled[j] = true
	}
	k.Run()
	if want := 3000 - len(canceled); len(got) != want {
		t.Fatalf("fired %d events, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("event %d fired at %v before %v", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
			t.Fatalf("same-instant events out of FIFO order: seq %d after %d",
				got[i].seq, got[i-1].seq)
		}
	}
	for i, f := range got {
		if canceled[f.seq] {
			t.Fatalf("canceled event %d fired (position %d)", f.seq, i)
		}
	}
}

// TestScheduleArg checks the closure-free scheduling variant: ordering is
// identical to Schedule, the argument round-trips, and Cancel works.
func TestScheduleArg(t *testing.T) {
	k := New(1)
	var order []int
	record := func(arg any) { order = append(order, *arg.(*int)) }
	vals := []int{10, 20, 30, 40}
	k.Schedule(2*time.Millisecond, func() { order = append(order, 99) })
	k.ScheduleArg(1*time.Millisecond, record, &vals[0])
	k.ScheduleArg(2*time.Millisecond, record, &vals[1]) // ties with the closure above, later seq
	tm := k.ScheduleArg(3*time.Millisecond, record, &vals[2])
	k.ScheduleArg(4*time.Millisecond, record, &vals[3])
	tm.Cancel()
	if tm.Active() {
		t.Fatal("canceled ScheduleArg timer still active")
	}
	k.Run()
	want := []int{10, 99, 20, 40}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleArgNilPanics pins the nil-handler guard on the arg variant.
func TestScheduleArgNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleArg(nil) did not panic")
		}
	}()
	New(1).ScheduleArg(time.Millisecond, nil, 7)
}

// TestBatchedEntriesRecycle pins the batch storage to what is pending: each
// cycle registers one callback at an instant A and then 600 at a later
// instant B, so the batch pool hands the batch that held 600 entries to A
// and the one that held one to B. Once warm, no cycle allocates, and B's
// callbacks still run in registration order across the chunk boundaries.
func TestBatchedEntriesRecycle(t *testing.T) {
	const hosts = 600
	k := New(1)
	var ran []int
	record := ArgHandler(func(a any) { ran = append(ran, *a.(*int)) })
	idx := make([]int, hosts)
	for i := range idx {
		idx[i] = i
	}
	cycle := func() {
		ran = ran[:0]
		k.AtBatched(k.Now()+Time(time.Millisecond), record, &idx[0])
		for i := range idx {
			k.AtBatched(k.Now()+2*Time(time.Millisecond), record, &idx[i])
		}
		k.RunUntil(k.Now() + 2*Time(time.Millisecond))
	}
	ran = make([]int, 0, hosts+1)
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Errorf("a warm cycle of 1 + %d batched callbacks allocates %v times, want 0", hosts, n)
	}
	if len(ran) != hosts+1 || ran[0] != 0 {
		t.Fatalf("ran %d callbacks, first %v; want %d, first 0", len(ran), ran[:1], hosts+1)
	}
	for i, v := range ran[1:] {
		if v != i {
			t.Fatalf("instant B's callback %d ran as %d: registration order lost", i, v)
		}
	}
}

// TestBatchedReregistrationStartsFreshBatch pins AtBatched's same-instant
// FIFO: a callback that registers for the instant being run, from any chunk
// of the batch, runs after the whole batch, in the order registered.
func TestBatchedReregistrationStartsFreshBatch(t *testing.T) {
	k := New(1)
	at := Time(time.Millisecond)
	var ran []int
	const n = 3*batchChunkLen + batchInline
	for i := 0; i < n; i++ {
		k.AtBatched(at, func(any) {
			ran = append(ran, i)
			if i%5 == 0 {
				k.AtBatched(at, func(any) { ran = append(ran, n+i) }, nil)
			}
		}, nil)
	}
	k.Run()
	var want []int
	for i := 0; i < n; i++ {
		want = append(want, i)
	}
	for i := 0; i < n; i += 5 {
		want = append(want, n+i)
	}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
}
