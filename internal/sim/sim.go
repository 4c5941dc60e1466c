// Package sim implements the discrete-event simulation kernel on which the
// wireless medium, the host runtime, and every protocol in this repository
// run. It provides a virtual clock, an ordered event queue, cancellable
// timers, and a deterministic random-number source.
//
// The kernel is deliberately single-threaded: protocol handlers execute one
// at a time in virtual-time order, so no protocol code needs locks and every
// run with the same seed is bit-for-bit reproducible. This mirrors how the
// paper's analysis treats a round: a bounded window (Thop) within which all
// deliveries either happen or are lost.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Time is a point in virtual time, measured from the start of the run.
// It reuses time.Duration so protocol code can write 20*time.Millisecond.
type Time = time.Duration

// Handler is a callback executed when an event fires.
type Handler func()

// ArgHandler is a callback executed with the argument it was scheduled with.
// It exists so hot paths can schedule a shared (often pooled) handler plus a
// pointer argument instead of allocating a fresh closure per event; see
// Kernel.ScheduleArg.
type ArgHandler func(arg any)

// event is a scheduled callback, or the kernel's handle on a Run. seq breaks
// ties so that events scheduled for the same instant fire in scheduling order
// (FIFO), which keeps runs deterministic. The firing instant is not here: it
// is the heap entry's key (see eventQueue).
//
// Events are pooled: the kernel keeps a free list and recycles an event
// once it has fired or its cancellation has been collected. gen counts
// reuses so that a stale Timer handle (pointing at a recycled event) can
// detect that its event is gone and stay inert instead of touching the new
// occupant.
//
// Exactly one of fn and run is set. fn+arg is every timer's callback: arg is
// typically a pointer (or a Handler, for Schedule), and storing either in an
// interface does not allocate, so an event costs zero heap beyond the pooled
// event. A run's event carries the first seq of the run's block: no other
// event's seq falls inside the block, so against everything else in the
// queue any seq of the block orders the same.
type event struct {
	seq      uint64
	fn       ArgHandler
	arg      any
	run      *Run
	next     *event // free-list link while pooled
	gen      uint64 // incremented on every release to the pool
	canceled bool
	queued   bool // in the heap; what Timer.Active reads
}

// entry is one heap slot: the firing instant inline, so a sift compares
// neighbouring 16-byte slots and touches an event only on an `at` tie.
type entry struct {
	at Time
	ev *event
}

// less orders entries by (at, seq). seq is unique, so this is a strict total
// order: ANY correct min-heap pops events in exactly this order, which is
// why heap arity, entry layout and replace-top cannot change simulation
// output.
func less(x, y entry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.ev.seq < y.ev.seq
}

// eventQueue is a hand-rolled 4-ary min-heap of entries ordered by
// (at, seq). The time key lives in the slot, not behind the event pointer:
// the four children of a node are one 64-byte line, and choosing among them
// reads no event unless two fire at the same instant. A 4-ary layout halves
// the tree depth versus binary, trading slightly more comparisons per level
// for far fewer cache-missing levels. Sift operations hole-copy (shift
// parents/children into the hole, then place the saved entry once) instead
// of swapping pairwise, and write nothing back into the events they move —
// no event knows its position; Timer.Active needs only event.queued.
//
// There are three operations: push, pop, and siftDown from any node whose key
// has grown. A Run's entry is keyed by the first item the kernel has not yet
// taken into a delivery window, so it is re-keyed and sunk once per window it
// has items in, not once per item (see Kernel.gather).
type eventQueue struct {
	a []entry
}

func (q *eventQueue) len() int { return len(q.a) }

func (q *eventQueue) push(e entry) {
	i := len(q.a)
	q.a = append(q.a, e)
	// Sift up: move the hole toward the root past larger parents.
	a := q.a
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

// pop removes and returns the root.
func (q *eventQueue) pop() entry {
	a := q.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = entry{}
	q.a = a[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// siftDown places e starting from a hole at i, whose subtrees are heaps: the
// hole moves toward the leaves past smaller children.
func (q *eventQueue) siftDown(i int, e entry) {
	a := q.a
	n := len(a)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if less(a[j], a[m]) {
				m = j
			}
		}
		if !less(a[m], e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// Timer is a handle to a scheduled event that can be canceled. The zero
// value is an inert timer: Cancel and Active are safe to call on it.
// The generation stamp keeps a handle inert once its event has fired and
// been recycled for a later Schedule call.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's handler from running if it has not fired yet.
// Canceling an already-fired or already-canceled timer is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.canceled = true
	}
}

// Active reports whether the timer is still pending (scheduled, not fired,
// not canceled).
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled && t.ev.queued
}

// RunItem is one firing of a Run.
type RunItem struct {
	// At is the absolute virtual instant the item fires.
	At Time
	// Tag is the caller's: the kernel hands it back to the RunHandler and
	// never reads it (the radio keeps the receiver's slot here).
	Tag uint32
}

// RunHandler is the callback of a Run: it receives the argument the run was
// scheduled with and the item that is firing.
type RunHandler func(arg any, it RunItem)

// Run is a series of firings that occupies at most ONE heap entry however
// many items it holds: the scheduling unit for "one cause, many timed
// effects", such as a radio transmission heard by every host in range. See
// Kernel.ScheduleRun.
//
// The caller owns the Run and its Items (typically inside a pooled record)
// and must leave both alone from ScheduleRun until the last item has fired:
// Done reports that from inside the handler, and is the caller's cue to
// recycle the record once the handler's own work is finished.
type Run struct {
	// Items are the firings, appended by the caller in the order the
	// equivalent individual ScheduleArg calls would have been made.
	// ScheduleRun reorders them by firing time.
	Items []RunItem

	pos  int    // next unfired item
	next int    // next item not yet taken into a delivery window
	seq  uint64 // the first of the run's block of seqs
	fn   RunHandler
	arg  any
}

// Done reports whether every item has fired (the one now firing included).
func (r *Run) Done() bool { return r.pos == len(r.Items) }

// Kernel is the discrete-event scheduler. Create one with New; the zero
// value is not usable because it lacks a random source.
type Kernel struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool
	firing  bool // a handler is running: ScheduleRun learns width from its leads
	steps   uint64
	unfired int    // run items with no heap entry of their own: in the window, or behind their run's key
	free    *event // recycled events (the #1 allocation site otherwise), linked through event.next

	// The delivery window (see gather): every unfired run item due in
	// [winStart, winLast] is in win[head:], sorted by (at, seq), and no run
	// in the heap has one. The fields every step reads come first; the
	// rest of the window's state is at the end, out of the way of a kernel
	// that runs only timers.
	win  []winEntry
	head int

	// Same-instant batching (AtBatched): one kernel event per distinct
	// timestamp, carrying every callback registered for it in FIFO order.
	// Batches and their chunks are pooled per kernel.
	batches     map[Time]*batch
	batchFree   []*batch
	batchChunks *batchChunk
	batchFn     ArgHandler

	// sortTmp and sortCnt are distribute's scratch, grown to the largest run
	// scheduled so far.
	sortTmp []RunItem
	sortCnt []uint32

	// win refers to runs through winRuns. width is the smallest lead of a
	// run scheduled from inside a firing; until one is (firingLead), the
	// smallest lead of any run stands in for it, so that a kernel fed only
	// from outside its firings does not keep one window open for seconds of
	// virtual time. lastWidth is the width the last window took, and winCap
	// the entries a window may hold unless one instant has more. inside is
	// gather's scratch.
	winRuns    []*Run
	winStart   Time
	winLast    Time
	width      Time
	lastWidth  Time
	firingLead bool
	winCap     int
	inside     []int32
}

// batch is the pooled callback list behind AtBatched. Entries are
// (handler, arg) pairs like ScheduleArg events, so registrants can thread
// pooled records through without a closure per callback. The first
// batchInline entries sit in the batch itself, which is all a one-host
// kernel's phase instants need; the rest live in fixed-size chunks taken
// from the kernel's free list and handed back as runBatch finishes each one.
// A pooled batch therefore keeps no storage sized by the largest instant it
// ever held: the kernel's chunks are shared by whichever instants are
// pending.
type batch struct {
	at         Time
	n          int // entries in inline
	inline     [batchInline]batchEntry
	head, tail *batchChunk
}

type batchEntry struct {
	fn  ArgHandler
	arg any
}

const (
	batchInline   = 4
	batchChunkLen = 8
)

type batchChunk struct {
	next *batchChunk
	n    int
	e    [batchChunkLen]batchEntry
}

// add appends one entry, taking a chunk from the kernel's free list when the
// inline entries and the tail chunk are full.
func (b *batch) add(k *Kernel, e batchEntry) {
	if b.n < batchInline {
		b.inline[b.n] = e
		b.n++
		return
	}
	c := b.tail
	if c == nil || c.n == batchChunkLen {
		if c = k.batchChunks; c != nil {
			k.batchChunks = c.next
			c.next = nil
		} else {
			c = &batchChunk{}
		}
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail = c
	}
	c.e[c.n] = e
	c.n++
}

// New returns a kernel whose random source is seeded with seed. Two kernels
// created with the same seed and driven by the same protocol code produce
// identical runs.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), width: maxWidth, lastWidth: maxWidth, winCap: windowCap}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All randomness in
// a simulation (placement, loss, jitter, crash times) must come from here so
// runs are reproducible from the seed alone.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Steps returns the number of events executed so far. Useful for progress
// accounting and for benchmarks.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of firings still scheduled: one per event
// (including canceled events that have not yet been collected) and one per
// unfired item of every Run — not the number of heap entries, which is at
// most one per run.
func (k *Kernel) Pending() int { return k.queue.len() + k.unfired }

// Schedule runs fn after the given delay of virtual time and returns a
// cancellable handle. A negative delay is treated as zero: the event fires
// at the current instant, after all events already scheduled for it.
func (k *Kernel) Schedule(delay Time, fn Handler) Timer {
	if fn == nil {
		panic("sim: Schedule called with nil handler")
	}
	return k.ScheduleArg(delay, callHandler, fn)
}

// callHandler runs the Handler a Schedule or At event carries as its argument.
func callHandler(fn any) { fn.(Handler)() }

// ScheduleArg runs fn(arg) after the given delay. It behaves exactly like
// Schedule with respect to ordering and cancellation, but lets hot paths
// reuse one long-lived fn for many events and thread per-event state through
// arg, avoiding a heap-allocated closure per event. Pass a pointer (or other
// non-allocating interface payload) as arg to keep the call allocation-free.
// A delay that would carry the firing past the end of time fires at
// math.MaxInt64.
func (k *Kernel) ScheduleArg(delay Time, fn ArgHandler, arg any) Timer {
	if fn == nil {
		panic("sim: ScheduleArg called with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	ev := k.alloc()
	ev.fn, ev.arg = fn, arg
	ev.seq = k.seq
	k.seq++
	k.enqueue(addSat(k.now, delay), ev)
	return Timer{ev: ev, gen: ev.gen}
}

func (k *Kernel) enqueue(at Time, ev *event) {
	ev.queued = true
	k.queue.push(entry{at: at, ev: ev})
}

// addSat returns t+d for d >= 0, or math.MaxInt64 where that overflows.
func addSat(t, d Time) Time {
	if t > math.MaxInt64-d {
		return math.MaxInt64
	}
	return t + d
}

// ScheduleRun schedules every item of r, as at most one heap entry. The
// firing order — among the items and against everything else in the queue
// — is exactly the order len(r.Items) ScheduleArg calls made now, one per
// item in Items order with delay At-Now, would have produced: the run takes
// that many consecutive seqs, item i gets the i-th, and a k-way merge of
// (at, seq) sorted series is the same total order as a heap of their
// members. Steps counts every item.
//
// What the run saves is heap work. Its items are sorted here, once, among
// themselves — a contiguous sort of a few 16-byte records, not one sift each
// through a heap of everything pending — and its heap entry is keyed by its
// first item not yet in a delivery window: it moves once per window the run
// has items in, not once per item (see gather). Items due inside the window
// that is open now are merged into it at once.
//
// Items must not fire in the past. There is no cancellation handle. An empty
// run schedules nothing and is Done at once.
func (k *Kernel) ScheduleRun(r *Run, fn RunHandler, arg any) {
	if fn == nil {
		panic("sim: ScheduleRun called with nil handler")
	}
	items := r.Items
	r.pos, r.next = 0, 0
	if len(items) == 0 {
		return
	}
	for i := range items {
		if items[i].At < k.now {
			panic(fmt.Sprintf("sim: ScheduleRun item at %v is in the past (now %v)", items[i].At, k.now))
		}
	}
	k.sortItems(items)
	r.fn, r.arg = fn, arg
	r.seq = k.seq
	k.seq += uint64(len(items))
	k.unfired += len(items)
	lead := max(items[0].At-k.now, 1)
	switch {
	case k.firing && !k.firingLead: // the first lead that counts replaces the stand-in
		k.width, k.firingLead = min(lead, maxWidth), true
	case k.firing || !k.firingLead:
		k.width = min(k.width, lead)
	}
	if k.head < len(k.win) && items[0].At <= k.winLast {
		k.merge(r)
		if r.next == len(items) {
			return
		}
	}
	ev := k.alloc()
	ev.run = r
	ev.seq = r.seq
	k.unfired--
	k.enqueue(items[r.next].At, ev)
}

// sortItems orders items by (At, ord), ord being an item's position in the
// order the caller appended it: its offset into the run's block of seqs. The
// items arrive in that order, so any stable sort by At alone produces it and
// no item carries its ord. Up to insertLimit items an insertion pass is the
// whole sort; a longer run is first distributed by time, which leaves every
// item within insertLimit places of its own, and the same pass finishes it.
func (k *Kernel) sortItems(items []RunItem) {
	if len(items) > insertLimit {
		k.distribute(items)
	}
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i
		for ; j > 0 && items[j-1].At > it.At; j-- { // stable, so ties keep ord order
			items[j] = items[j-1]
		}
		items[j] = it
	}
}

// insertLimit is the longest stretch the insertion pass is left to order by
// itself. Fan-outs are mostly a handful of items, where it beats any set-up.
const insertLimit = 12

// distribute moves items, stably, into at most len(items) equal-width time
// buckets in firing order, and does the same again inside every bucket that
// holds more than insertLimit items, so that what is left out of order is
// confined to stretches of at most insertLimit. A delivery run's delays are
// spread evenly over a few milliseconds, which one level sorts almost
// completely: a counting pass and a scatter in place of a comparison sort.
// Whatever the spread, a bucket that is divided again holds more than
// insertLimit items, which makes its buckets at most an eighth as wide as
// itself: at most 64/3 levels of O(n) each. Items that tie on At are left
// alone, in ord order.
func (k *Kernel) distribute(items []RunItem) {
	n := len(items)
	lo, hi := items[0].At, items[0].At
	for i := range items {
		lo, hi = min(lo, items[i].At), max(hi, items[i].At)
	}
	if lo == hi {
		return
	}
	// Buckets are 2^shift wide: the narrowest power of two that needs no
	// more than n of them to cover [lo, hi].
	shift := bits.Len64(uint64(hi-lo) / uint64(n))
	if len(k.sortTmp) < n {
		k.sortTmp = make([]RunItem, n)
	}
	if len(k.sortCnt) < n+1 {
		k.sortCnt = make([]uint32, n+1)
	}
	tmp, cnt := k.sortTmp[:n], k.sortCnt[:n+1]
	clear(cnt)
	for i := range items {
		cnt[uint64(items[i].At-lo)>>shift+1]++
	}
	var most uint32 // the fullest bucket
	for b := 1; b <= n; b++ {
		most = max(most, cnt[b])
		cnt[b] += cnt[b-1] // cnt[b] is now where bucket b starts
	}
	for i := range items {
		b := uint64(items[i].At-lo) >> shift
		tmp[cnt[b]] = items[i]
		cnt[b]++
	}
	copy(items, tmp)
	if most <= insertLimit {
		return
	}
	// The scratch is free again; the buckets' bounds are read back off the
	// items themselves.
	for i := 0; i < n; {
		b := uint64(items[i].At-lo) >> shift
		j := i + 1
		for j < n && uint64(items[j].At-lo)>>shift == b {
			j++
		}
		if j-i > insertLimit {
			k.distribute(items[i:j])
		}
		i = j
	}
}

// A delivery window is a stretch [winStart, winLast] of virtual time whose run
// items the kernel has taken out of their runs and sorted once (see gather).
// It is never wider than maxWidth, so an item's offset into it fits 32 bits,
// and holds at most windowCap items unless one instant has more.
const (
	maxWidth  = Time(math.MaxUint32)
	windowCap = 1024
)

// winEntry is one item of the delivery window: its instant as an offset from
// winStart and its run as an index into winRuns. A run's items fire in Items
// order, so the one firing is always Items[pos]; the window keeps a run's
// entries in that order because every pass that moves them is stable.
type winEntry struct {
	off, run uint32
}

// winBefore orders window entries of different instants or runs by
// (at, seq); two entries of one run are equal to it.
func (k *Kernel) winBefore(a, b winEntry) bool {
	if a.off != b.off {
		return a.off < b.off
	}
	return a.run != b.run && k.winRuns[a.run].seq < k.winRuns[b.run].seq
}

// winNext reports whether the window's head is the next firing: before the
// heap's root. A live run's entry in the heap is always later than the window,
// so the root the head can lose to is a timer, whose seq lies outside the
// head's block, or a finished run's leftover entry, which never fires.
func (k *Kernel) winNext() bool {
	if k.head == len(k.win) {
		return false
	}
	if k.queue.len() == 0 {
		return true
	}
	e, top := k.win[k.head], k.queue.a[0]
	at := k.winStart + Time(e.off)
	return at < top.at || at == top.at && k.winRuns[e.run].seq < top.ev.seq
}

// gather opens the delivery window at t0, the instant of the run at the root.
// The window spans width, halved while it would hold more than winCap items,
// down to the one instant t0, which is taken whole. It starts no wider than
// twice the last window, so in a burst that needed halving each window is
// halved once or not at all, and after it the width doubles back.
//
// The heap entries due in the window are a subtree at the top of the heap,
// and only its runs change. Their due items are distributed into the window
// by time (distributeWindow), and an insertion pass finishes the order. Then,
// from the deepest up, each run's entry is re-keyed to its first item after
// the window and sunk: below it every subtree is a heap again by then, so one
// sift each repairs the whole heap. A run with no item left keeps its entry,
// canceled and with no handler, until the entry reaches the root and is
// collected; until then it stands in Pending for one of the run's items.
// Timers in the window stay where they are: the firing loop interleaves them
// with the window by comparing each against its head.
func (k *Kernel) gather(t0 Time) {
	w := min(k.width, 2*k.lastWidth)
	last := addSat(t0, w-1)
	a := k.queue.a
	// A breadth-first walk lists the subtree in ascending index order.
	in := append(k.inside[:0], 0)
	for j := 0; j < len(in); j++ {
		c := int(in[j])<<2 + 1
		for end := min(c+4, len(a)); c < end; c++ {
			if a[c].at <= last {
				in = append(in, int32(c))
			}
		}
	}
	clear(k.winRuns)
	runs := k.winRuns[:0]
	for _, i := range in {
		if r := a[i].ev.run; r != nil {
			runs = append(runs, r)
		}
	}
	// A window over the cap is halved and counted again; counting stops
	// once the cap is passed, so a burst costs at most winCap items a try.
	var n int
	for {
		n = 0
		kept := runs[:0]
		for _, r := range runs {
			if r.Items[r.next].At <= last {
				kept = append(kept, r)
				if n <= k.winCap || w == 1 {
					n += due(r, last)
				}
			}
		}
		clear(runs[len(kept):])
		runs = kept
		if n <= k.winCap || w == 1 {
			break
		}
		w /= 2
		last = addSat(t0, w-1)
	}
	k.lastWidth = w
	k.winRuns = runs

	k.distributeWindow(t0, w, n)
	for x := len(in) - 1; x >= 0; x-- {
		i := int(in[x])
		ev := a[i].ev
		if r := ev.run; r == nil || a[i].at > last {
			continue
		} else if r.next < len(r.Items) {
			k.queue.siftDown(i, entry{at: r.Items[r.next].At, ev: ev})
		} else {
			ev.run, ev.canceled = nil, true
		}
	}
	k.inside = in[:0]
	k.head, k.winStart, k.winLast = 0, t0, last

	win := k.win
	for i := 1; i < len(win); i++ {
		e := win[i]
		j := i
		for ; j > 0 && k.winBefore(e, win[j-1]); j-- {
			win[j] = win[j-1]
		}
		win[j] = e
	}
}

// distributeWindow fills the window with the n items of winRuns due in the w
// nanoseconds from t0, taking them out of their runs (advancing each run's
// next). One counting pass by time and one stable scatter straight from the
// runs put them into about n/4 equal-width buckets in firing order, and a
// stable comparison sort orders any bucket fuller than insertLimit, so that
// what is left out of order for the insertion pass is confined to stretches
// of at most insertLimit entries. A delivery window's items are spread over
// it about evenly: the buckets hold a few each. Up to insertLimit items the
// insertion pass is the whole sort, so they all go in one bucket.
func (k *Kernel) distributeWindow(t0, w Time, n int) {
	last := addSat(t0, w-1)
	// Buckets are 2^shift wide: the narrowest power of two that needs no
	// more than n/4+1 of them to cover the window.
	shift, nb := 63, 1
	if n > insertLimit {
		shift = bits.Len64(uint64(w-1) / uint64(n/4+1))
		nb = int(uint64(w-1)>>shift) + 1
	}
	if len(k.sortCnt) < nb+1 {
		k.sortCnt = make([]uint32, nb+1)
	}
	cnt := k.sortCnt[:nb+1]
	clear(cnt)
	if nb > 1 {
		for _, r := range k.winRuns {
			for j := r.next; j < len(r.Items) && r.Items[j].At <= last; j++ {
				cnt[uint64(r.Items[j].At-t0)>>shift+1]++
			}
		}
		for b := 1; b <= nb; b++ {
			cnt[b] += cnt[b-1] // cnt[b] is now where bucket b starts
		}
	} else {
		cnt[1] = uint32(n)
	}
	if cap(k.win) < n {
		k.win = make([]winEntry, 0, max(n, min(max(4*cap(k.win), 256), k.winCap)))
	}
	win := k.win[:n]
	for ri, r := range k.winRuns {
		j := r.next
		for ; j < len(r.Items) && r.Items[j].At <= last; j++ {
			off := uint32(r.Items[j].At - t0)
			b := off >> shift
			win[cnt[b]] = winEntry{off: off, run: uint32(ri)}
			cnt[b]++
		}
		r.next = j
	}
	k.win = win
	for b, start := 0, 0; b < nb; b++ {
		end := int(cnt[b]) // the scatter left cnt[b] where bucket b ends
		if end-start > insertLimit {
			slices.SortStableFunc(win[start:end], k.winCmp)
		}
		start = end
	}
}

// winCmp is winBefore as a three-way comparison.
func (k *Kernel) winCmp(a, b winEntry) int {
	switch {
	case k.winBefore(a, b):
		return -1
	case k.winBefore(b, a):
		return 1
	}
	return 0
}

// due counts r's items from r.next on that are due by last.
func due(r *Run, last Time) int {
	i := r.next
	for i < len(r.Items) && r.Items[i].At <= last {
		i++
	}
	return i - r.next
}

// merge takes r's items that are due inside the open window into it, for a
// run scheduled while the window is open. Its seqs are newer than every
// entry's, so each item goes after every entry at or before its instant: one
// merge from the back of two sorted lists. The fired entries are dropped
// first.
func (k *Kernel) merge(r *Run) {
	m := due(r, k.winLast)
	live := copy(k.win, k.win[k.head:])
	win := slices.Grow(k.win[:live], m)[:live+m]
	ri := uint32(len(k.winRuns))
	k.winRuns = append(k.winRuns, r)
	i, d := live-1, live+m-1
	for j := m - 1; j >= 0; d-- {
		off := uint32(r.Items[j].At - k.winStart)
		if i >= 0 && win[i].off > off {
			win[d] = win[i]
			i--
		} else {
			win[d] = winEntry{off: off, run: ri}
			j--
		}
	}
	k.win, k.head = win, 0
	r.next = m
}

// alloc takes an event from the free list. An empty list grows by a block of
// 64 events in one allocation: under sustained traffic growth the pool never
// reaches a steady high-water mark, so per-event allocation would recur every
// epoch; block growth amortizes it 64×.
func (k *Kernel) alloc() *event {
	if k.free == nil {
		blk := make([]event, 64)
		for i := range blk[:len(blk)-1] {
			blk[i].next = &blk[i+1]
		}
		k.free = &blk[0]
	}
	ev := k.free
	k.free, ev.next = ev.next, nil
	return ev
}

// release recycles a popped event. Bumping the generation invalidates every
// outstanding Timer handle to it; clearing the handler fields drops the
// closure and argument so the pool retains no protocol state.
func (k *Kernel) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.run = nil
	ev.canceled = false
	ev.next, k.free = k.free, ev
}

// collect recycles a canceled event that has reached the root. One with no
// handler is a run's entry that outlived the run's last items going into a
// window (see gather): it stood in Pending for one of them, and unfired now
// counts that item instead.
func (k *Kernel) collect(ev *event) {
	if ev.fn == nil {
		k.unfired++
	}
	k.release(ev)
}

// At runs fn at the given absolute virtual time, which must not be in the
// past. It returns a cancellable handle.
func (k *Kernel) At(at Time, fn Handler) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", at, k.now))
	}
	return k.Schedule(at-k.now, fn)
}

// AtBatched runs fn(arg) at the given absolute virtual time, coalescing every
// callback registered for the same instant into ONE kernel event. Within a
// batch, callbacks run in registration order — exactly the (at, seq) order
// individual At calls would have produced — and the batch event itself takes
// the queue position (seq) of the first registration, so callbacks that would
// have fired consecutively anyway are unchanged while the event count drops.
//
// The trade-offs versus At: no cancellation handle (callbacks must guard
// themselves, as crash-aware host timers already do), and a callback
// registered between two other same-instant events fires with the batch, not
// between them. The protocol phase schedule (epoch boundaries, round ends)
// satisfies both constraints: phase events for one instant are registered
// back-to-back by the previous epoch's handlers and nothing else lands on
// those exact nanoseconds.
func (k *Kernel) AtBatched(at Time, fn ArgHandler, arg any) {
	if fn == nil {
		panic("sim: AtBatched called with nil handler")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: AtBatched(%v) is in the past (now %v)", at, k.now))
	}
	if b, ok := k.batches[at]; ok {
		b.add(k, batchEntry{fn: fn, arg: arg})
		return
	}
	if k.batches == nil {
		k.batches = make(map[Time]*batch)
		k.batchFn = k.runBatch
	}
	var b *batch
	if n := len(k.batchFree); n > 0 {
		b = k.batchFree[n-1]
		k.batchFree[n-1] = nil
		k.batchFree = k.batchFree[:n-1]
	} else {
		b = &batch{}
	}
	b.at = at
	b.add(k, batchEntry{fn: fn, arg: arg})
	k.batches[at] = b
	k.ScheduleArg(at-k.now, k.batchFn, b)
}

// runBatch fires one batch: the map entry is removed first, so a callback
// re-registering for the current instant starts a fresh batch that fires
// after this event, preserving At's same-instant FIFO semantics. That also
// means no callback adds to b while it runs. Each chunk goes back to the
// free list once its last entry has run, so a callback registering for a
// later instant may reuse it at once.
func (k *Kernel) runBatch(arg any) {
	b := arg.(*batch)
	delete(k.batches, b.at)
	for i := 0; i < b.n; i++ {
		e := b.inline[i]
		b.inline[i] = batchEntry{}
		e.fn(e.arg)
	}
	for c := b.head; c != nil; {
		for i := 0; i < c.n; i++ {
			e := c.e[i]
			c.e[i] = batchEntry{}
			e.fn(e.arg)
		}
		next := c.next
		c.n, c.next = 0, k.batchChunks
		k.batchChunks = c
		c = next
	}
	b.n, b.head, b.tail = 0, nil, nil
	k.batchFree = append(k.batchFree, b)
}

// Stop makes the currently running Run/RunUntil return after the event being
// executed completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// step executes the next live firing if it is due by deadline, opening a
// delivery window first when that firing is a run's. It reports whether one
// was executed. Canceled timers are collected as they reach the front.
func (k *Kernel) step(deadline Time) bool {
	for {
		if k.winNext() {
			e := k.win[k.head]
			at := k.winStart + Time(e.off)
			if at > deadline {
				return false
			}
			k.head++
			r := k.winRuns[e.run]
			it := r.Items[r.pos]
			r.pos++
			if r.pos == len(r.Items) {
				k.winRuns[e.run] = nil // the kernel keeps no finished run
			}
			k.unfired--
			k.now = at
			k.steps++
			k.firing = true
			r.fn(r.arg, it)
			k.firing = false
			return true
		}
		if k.queue.len() == 0 {
			return false
		}
		top := k.queue.a[0]
		if top.at > deadline {
			return false
		}
		ev := top.ev
		if ev.run != nil {
			k.gather(top.at)
			continue
		}
		k.pop()
		if ev.canceled {
			k.collect(ev)
			continue
		}
		k.now = top.at
		k.steps++
		fn, arg := ev.fn, ev.arg
		// Recycle before running: the handler may immediately schedule a
		// follow-up, which then reuses this slot instead of allocating.
		// Outstanding Timer handles are invalidated by the generation bump.
		k.release(ev)
		k.firing = true
		fn(arg)
		k.firing = false
		return true
	}
}

// pop removes the root entry.
func (k *Kernel) pop() { k.queue.pop().ev.queued = false }

// Run executes events until the queue drains or Stop is called. It returns
// the virtual time at which the run ended.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.step(math.MaxInt64) {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled after the deadline stay queued, so
// simulations can be resumed by calling RunUntil again with a later deadline.
// A deadline inside a delivery window leaves the window open.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for !k.stopped {
		// The root's instant lies in its heap slot: with no window open, a
		// root later than the deadline ends the call whether it is live or
		// canceled, so an idle kernel neither calls step nor chases the
		// event pointer to learn it has nothing due.
		if k.head == len(k.win) && (k.queue.len() == 0 || k.queue.a[0].at > deadline) || !k.step(deadline) {
			break
		}
	}
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// NextEventAt returns the timestamp of the next live (non-canceled) event,
// if any. Live drivers (cmd/fdsd's wall-clock pump) use it to sleep exactly
// until the protocol core next needs to run instead of polling.
func (k *Kernel) NextEventAt() (Time, bool) { return k.peekTime() }

// peekTime returns the timestamp of the next live event.
func (k *Kernel) peekTime() (Time, bool) {
	for {
		if k.winNext() {
			return k.winStart + Time(k.win[k.head].off), true
		}
		if k.queue.len() == 0 {
			return 0, false
		}
		top := k.queue.a[0]
		if !top.ev.canceled {
			return top.at, true
		}
		k.pop()
		k.collect(top.ev)
	}
}
