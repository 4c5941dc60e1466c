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
	"math/bits"
	"math/rand"
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
// There are three operations: push, pop, and replaceTop — the root's key
// moved later (a Run advanced to its next item), so it sinks from the root
// in one pass instead of a pop followed by a push.
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
		q.siftDown(last)
	}
	return top
}

// replaceTop overwrites the root with e and restores the heap.
func (q *eventQueue) replaceTop(e entry) { q.siftDown(e) }

// siftDown places e starting from a hole at the root: the hole moves toward
// the leaves past smaller children.
func (q *eventQueue) siftDown(e entry) {
	a := q.a
	n := len(a)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
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

// Run is a series of firings that occupies ONE heap entry however many items
// it holds: the scheduling unit for "one cause, many timed effects", such as
// a radio transmission heard by every host in range. See Kernel.ScheduleRun.
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

	pos int // next unfired item
	fn  RunHandler
	arg any
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
	steps   uint64
	unfired int    // items of queued runs behind each run's next one: firings with no heap entry of their own
	free    *event // recycled events (the #1 allocation site otherwise), linked through event.next

	// sortTmp and sortCnt are distribute's scratch, grown to the largest run
	// scheduled so far.
	sortTmp []RunItem
	sortCnt []uint32

	// Same-instant batching (AtBatched): one kernel event per distinct
	// timestamp, carrying every callback registered for it in FIFO order.
	// Batches and their chunks are pooled per kernel.
	batches     map[Time]*batch
	batchFree   []*batch
	batchChunks *batchChunk
	batchFn     ArgHandler
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
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
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
// unfired item of every Run — not the number of heap entries, which is one
// per run.
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
	k.enqueue(k.now+delay, ev)
	return Timer{ev: ev, gen: ev.gen}
}

func (k *Kernel) enqueue(at Time, ev *event) {
	ev.queued = true
	k.queue.push(entry{at: at, ev: ev})
}

// ScheduleRun schedules every item of r as one heap entry. The firing order
// — among the items and against everything else in the queue — is exactly
// the order len(r.Items) ScheduleArg calls made now, one per item in Items
// order with delay At-Now, would have produced: the run takes that many
// consecutive seqs, item i gets the i-th, and a k-way merge of (at, seq)
// sorted series is the same total order as a heap of their members. Steps
// counts every item.
//
// What the run saves is heap work. Its items are sorted here, once, among
// themselves — a contiguous sort of a few 16-byte records, not one sift each
// through a heap of everything pending — and when one fires the kernel
// re-keys the root to the next item and sinks it, instead of popping one
// entry and having pushed another earlier.
//
// Items must not fire in the past. There is no cancellation handle. An empty
// run schedules nothing and is Done at once.
func (k *Kernel) ScheduleRun(r *Run, fn RunHandler, arg any) {
	if fn == nil {
		panic("sim: ScheduleRun called with nil handler")
	}
	items := r.Items
	r.pos = 0
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
	ev := k.alloc()
	ev.run = r
	ev.seq = k.seq
	k.seq += uint64(len(items))
	k.unfired += len(items) - 1
	k.enqueue(items[0].At, ev)
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

// step executes the next live firing. It reports whether one was executed.
func (k *Kernel) step() bool {
	for k.queue.len() > 0 {
		top := k.queue.a[0]
		ev := top.ev
		if r := ev.run; r != nil {
			k.fireRunItem(top.at, ev, r)
			return true
		}
		k.pop()
		if ev.canceled {
			k.release(ev)
			continue
		}
		k.now = top.at
		k.steps++
		fn, arg := ev.fn, ev.arg
		// Recycle before running: the handler may immediately schedule a
		// follow-up, which then reuses this slot instead of allocating.
		// Outstanding Timer handles are invalidated by the generation bump.
		k.release(ev)
		fn(arg)
		return true
	}
	return false
}

// pop removes the root entry.
func (k *Kernel) pop() { k.queue.pop().ev.queued = false }

// fireRunItem fires the next item of the run at the root. The heap is
// settled first — root re-keyed to the following item, or removed after the
// last — so the handler sees a consistent queue and, on the last item, a Run
// the kernel no longer refers to.
func (k *Kernel) fireRunItem(at Time, ev *event, r *Run) {
	it := r.Items[r.pos]
	r.pos++
	fn, arg := r.fn, r.arg
	if r.pos < len(r.Items) {
		k.queue.replaceTop(entry{at: r.Items[r.pos].At, ev: ev})
		k.unfired--
	} else {
		k.pop()
		k.release(ev)
	}
	k.now = at
	k.steps++
	fn(arg, it)
}

// Run executes events until the queue drains or Stop is called. It returns
// the virtual time at which the run ended.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled after the deadline stay queued, so
// simulations can be resumed by calling RunUntil again with a later deadline.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	// The root's instant lies in its heap slot: a root later than the
	// deadline ends the call whether it is live or canceled, so an idle
	// kernel does not chase the event pointer to learn it has nothing due. A
	// canceled root is collected once the deadline reaches it.
	for !k.stopped && k.queue.len() > 0 {
		top := k.queue.a[0]
		if top.at > deadline {
			break
		}
		if top.ev.canceled {
			k.pop()
			k.release(top.ev)
			continue
		}
		k.step()
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
	for k.queue.len() > 0 {
		if top := k.queue.a[0]; top.ev.canceled {
			k.pop()
			k.release(top.ev)
			continue
		}
		return k.queue.a[0].at, true
	}
	return 0, false
}
