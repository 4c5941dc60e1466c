package shard

import (
	"math"
	"math/bits"
	"slices"

	"clusterfds/internal/sim"
)

// evQueue is a shard's set of pending events, popped in the global key order
// (at, owner, seq). Almost every event of a run is a delivery scheduled
// between Radio.MinDelay and Radio.MaxDelay ahead of the one that creates it,
// so the queue is shaped for that and exact for everything else:
//
//   - ring: unsorted time buckets 1<<shift ns wide — the narrowest power of
//     two that covers a window — long enough that now+MaxDelay always lands
//     in it. push appends in O(1) and keeps each bucket's earliest at.
//   - open: the bucket pop has reached, moved out of the ring and sorted
//     once, then walked in order. near is a small heap beside it for what is
//     pushed into or before that bucket while it drains (same-instant relays,
//     in-window timers, barrier merges that land in its tail); pop takes the
//     lesser of the two heads.
//   - far: a small heap for what lies beyond the ring (epoch ticks, round
//     timers, crashes). A far event stays there until its own bucket opens
//     and joins it then, so the ring is only the fast path: with any Radio
//     parameters, or none of the traffic above, the order is the same.
//
// An event costs one append, one counting pass, one scatter and a sequential
// read instead of a sift through a multi-megabyte heap.
type evQueue struct {
	shift uint     // a bucket spans 1<<shift ns
	ring  []bucket // ring[b&mask] is bucket b for openB < b <= openB+len(ring)
	mask  int64

	openB int64 // index (at>>shift) of the open bucket
	open  []ev  // the open bucket in key order; open[pos:] is still pending
	pos   int
	near  evHeap // pushed at or before the open bucket
	far   evHeap // pushed beyond the ring

	n       int      // pending events over all three tiers
	ringN   int      // of which in the ring
	restMin sim.Time // earliest at in ring and far; maxTime when both are empty

	free *chunk   // recycled bucket storage
	cnt  []uint32 // sortInto's counting scratch
}

// A bucket's events live in fixed-size chunks taken from, and returned to, a
// per-queue free list: a bucket is filled once and emptied once, so a
// growable slice per bucket would re-grow (and copy) every revolution of the
// ring. The chunk being filled is the head of the list.
type bucket struct {
	head *chunk
	n    int
	min  sim.Time // earliest at; valid when n > 0
}

const (
	chunkLen   = 256 // events per chunk: 8 KB
	chunkBlock = 16  // chunks per allocation
)

type chunk struct {
	next *chunk
	n    int
	evs  [chunkLen]ev
}

const (
	maxTime = sim.Time(math.MaxInt64)

	// maxRing caps the ring when MaxDelay is thousands of windows: beyond it
	// deliveries go through far, slower but in the same order.
	maxRing = 1 << 12

	// insertLimit is the longest stretch sortInto leaves to its insertion
	// pass, as in sim.Kernel's run sort.
	insertLimit = 12
)

// init sizes the ring for a radio whose deliveries arrive minDelay..maxDelay
// after they are sent. minDelay is also the engine's window width.
func (q *evQueue) init(minDelay, maxDelay sim.Time) {
	q.shift = uint(bits.Len64(uint64(minDelay - 1)))
	// An event in the open bucket schedules at most this many buckets ahead.
	ahead := uint64(maxDelay)>>q.shift + 1
	ringLen := maxRing
	if ahead < maxRing {
		ringLen = max(2, 1<<bits.Len64(ahead-1))
	}
	q.ring = make([]bucket, ringLen)
	q.mask = int64(ringLen - 1)
	q.openB = -1
	q.restMin = maxTime
}

func (q *evQueue) len() int { return q.n }

// minTime returns the exact earliest pending instant — not a bucket edge:
// sim.RunWindows places window edges on it — or ok=false when empty.
func (q *evQueue) minTime() (sim.Time, bool) {
	// Everything in ring and far is later than the open bucket's range.
	if q.pos < len(q.open) {
		t := q.open[q.pos].at
		if q.near.len() > 0 && q.near.a[0].at < t {
			t = q.near.a[0].at
		}
		return t, true
	}
	if q.near.len() > 0 {
		return q.near.a[0].at, true
	}
	return q.restMin, q.n > 0
}

func (q *evQueue) push(e ev) {
	q.n++
	b := int64(e.at) >> q.shift
	if b <= q.openB {
		q.near.push(e)
		return
	}
	if e.at < q.restMin {
		q.restMin = e.at
	}
	if b-q.openB > int64(len(q.ring)) {
		q.far.push(e)
		return
	}
	q.ringPush(&q.ring[b&q.mask], e)
}

func (q *evQueue) ringPush(bk *bucket, e ev) {
	c := bk.head
	if c == nil || c.n == chunkLen {
		if q.free == nil { // grow by a block, as sim.Kernel.alloc does
			blk := make([]chunk, chunkBlock)
			for i := range blk[:chunkBlock-1] {
				blk[i].next = &blk[i+1]
			}
			q.free = &blk[0]
		}
		c, q.free = q.free, q.free.next
		c.n, c.next = 0, bk.head
		bk.head = c
	}
	c.evs[c.n] = e
	c.n++
	if bk.n == 0 || e.at < bk.min {
		bk.min = e.at
	}
	bk.n++
	q.ringN++
}

// pop removes and returns the least pending event. The queue must not be
// empty.
func (q *evQueue) pop() ev {
	if q.pos == len(q.open) && q.near.len() == 0 {
		q.openNext()
	}
	q.n--
	if q.near.len() > 0 && (q.pos == len(q.open) || q.near.a[0].less(&q.open[q.pos])) {
		return q.near.pop()
	}
	q.pos++
	return q.open[q.pos-1]
}

// openNext moves the earliest non-empty bucket out of ring and far into open,
// in key order. open and near are exhausted and the queue is not empty.
func (q *evQueue) openNext() {
	// restMin is exact, so its bucket is the next one with anything in it. Its
	// ring slot holds that bucket or nothing: an earlier bucket sharing the
	// slot would hold an earlier event.
	b := int64(q.restMin) >> q.shift
	q.openB = b
	bk := &q.ring[b&q.mask]
	for q.far.len() > 0 && int64(q.far.a[0].at)>>q.shift == b {
		q.ringPush(bk, q.far.pop())
	}
	n := bk.n
	q.ringN -= n
	if cap(q.open) < n {
		q.open = make([]ev, max(n, 2*cap(q.open)))
	}
	q.open, q.pos = q.open[:n], 0
	q.sortInto(q.open, bk.head)
	*bk = bucket{}

	q.restMin = maxTime
	if q.ringN > 0 {
		i := b + 1
		for q.ring[i&q.mask].n == 0 {
			i++
		}
		q.restMin = q.ring[i&q.mask].min
	}
	if q.far.len() > 0 && q.far.a[0].at < q.restMin {
		q.restMin = q.far.a[0].at
	}
}

// sortInto empties a bucket's chunks into open (whose length is the bucket's
// count) in key order, and frees the chunks. Deliveries are spread evenly
// over [MinDelay, MaxDelay], so distributing a bucket on at over as many
// sub-buckets as it has events — a counting pass and a scatter, no
// comparison — leaves almost nothing out of place: ties on at and the odd
// crowded sub-bucket, which one insertion pass by the full key settles. A
// sub-bucket too crowded for that (a radio with one fixed delay, a thousand
// timers on one instant) is sorted by the library first, which keeps the
// whole O(n log n) whatever the times are.
func (q *evQueue) sortInto(open []ev, head *chunk) {
	n := len(open)
	k := min(uint(bits.Len(uint(n))), q.shift) // 1<<k sub-buckets: n < 1<<k <= 2n
	sub := q.shift - k
	low := uint64(1)<<q.shift - 1
	if len(q.cnt) < 1<<k+1 {
		q.cnt = make([]uint32, 1<<k+1)
	}
	cnt := q.cnt[:1<<k+1]
	clear(cnt)
	for c := head; c != nil; c = c.next {
		for i := range c.evs[:c.n] {
			cnt[(uint64(c.evs[i].at)&low)>>sub+1]++
		}
	}
	var most uint32 // the fullest sub-bucket
	for s := 1; s < len(cnt); s++ {
		most = max(most, cnt[s])
		cnt[s] += cnt[s-1] // cnt[s] is now where sub-bucket s starts
	}
	for c := head; c != nil; {
		for i := range c.evs[:c.n] {
			s := (uint64(c.evs[i].at) & low) >> sub
			open[cnt[s]] = c.evs[i]
			cnt[s]++ // and, once all are placed, where it ends
		}
		next := c.next
		c.next, q.free = q.free, c
		c = next
	}
	if most > insertLimit {
		start := uint32(0)
		for _, end := range cnt[:1<<k] {
			if end-start > insertLimit {
				slices.SortFunc(open[start:end], func(x, y ev) int {
					if x.less(&y) {
						return -1
					}
					if y.less(&x) {
						return 1
					}
					return 0
				})
			}
			start = end
		}
	}
	for i := 1; i < n; i++ {
		if !open[i].less(&open[i-1]) {
			continue
		}
		e := open[i]
		j := i
		for ; j > 0 && e.less(&open[j-1]); j-- {
			open[j] = open[j-1]
		}
		open[j] = e
	}
}
