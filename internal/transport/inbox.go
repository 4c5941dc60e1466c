package transport

import (
	"sync"
	"sync/atomic"
)

// inboxDepth is the inbound queue depth of one live port (a power of two, so
// that a slot index survives the counters' wrap). Deep enough that a cooperative test draining between
// virtual steps never drops; a full queue drops like a full socket buffer
// would.
const inboxDepth = 1024

// Inbox is the inbound datagram queue of one live port, the receiving half of
// a Link. It is a bounded ring with one producer at a time (a ChanMesh
// broadcasting under its lock, a UDPLink's reader goroutine) and one consumer
// (the goroutine that drives the port's daemon): the producer owns tail and
// the free slots, the consumer owns head and the filled ones, and each
// publishes its index atomically, so neither side takes a lock and an empty
// port costs its consumer two loads.
//
// Datagrams leave in arrival order. One that arrives while inboxDepth are
// queued is dropped and counted (Dropped); the queued ones are never
// displaced.
//
// A queued payload lies in its link's slabs (slab.go). The consumer
// publishes done once per Drain, after its callbacks return; that is what
// lets the producer reuse a slab, and why a payload is valid only until the
// callback it was handed to returns.
type Inbox struct {
	ring    *[inboxDepth]Packet
	head    atomic.Uint64 // next slot to drain; written by the consumer only
	tail    atomic.Uint64 // next slot to fill; written by the producer only
	done    atomic.Uint64 // datagrams whose callback has returned; written once per Drain
	dropped atomic.Int64

	ready chan struct{} // one token: "the inbox is not empty"
	// mu orders wake against close (a send on a closed channel panics). It
	// is taken only when a port turns non-empty and when it closes, never
	// per datagram.
	mu     sync.Mutex
	closed bool
}

// init allocates the ring. The Inbox lives inside its link, so that a
// producer walking a mesh's ports reaches a port's indices without a second
// pointer to chase.
func (q *Inbox) init() {
	q.ring = new([inboxDepth]Packet)
	q.ready = make(chan struct{}, 1)
}

// push queues p, or drops and counts it when the ring is full. Producer side.
func (q *Inbox) push(p Packet) {
	t := q.tail.Load()
	if t-q.head.Load() == inboxDepth {
		q.dropped.Add(1)
		return
	}
	q.ring[t%inboxDepth] = p
	q.tail.Store(t + 1)
	// The consumer publishes head and then re-reads tail (Drain); this side
	// publishes tail and then re-reads head. Whichever comes second sees the
	// other, so a datagram queued behind a drain that emptied the port is
	// announced by one of the two.
	if q.head.Load() == t {
		q.wake()
	}
}

// Len returns the number of queued datagrams. Safe from any goroutine: exact
// or short of later arrivals for the consumer, for whom head stands still, a
// recent figure for anyone else.
func (q *Inbox) Len() int {
	h := q.head.Load() // first: tail is never behind a head read earlier
	return int(q.tail.Load() - h)
}

// Drain hands fn every datagram that was queued when Drain was called, oldest
// first, and returns without blocking; what arrives meanwhile waits for the
// next call, so a busy producer cannot hold the consumer here. A slot is the
// producer's again before fn sees its datagram; the payload's bytes are the
// producer's again once Drain has returned, so fn reads them only until it
// returns and copies what it keeps (see Packet). Consumer side: one goroutine
// at a time.
func (q *Inbox) Drain(fn func(Packet)) {
	t := q.tail.Load()
	h := q.head.Load()
	if h == t {
		return // nothing queued: a datagram queued since was announced by its push
	}
	for ; h != t; h++ {
		slot := &q.ring[h%inboxDepth]
		p := *slot
		*slot = Packet{} // the ring must not pin a delivered payload
		q.head.Store(h + 1)
		fn(p)
	}
	q.done.Store(t) // once per drain: the producer may reuse these bytes now
	if q.tail.Load() != t {
		q.wake() // left datagrams behind: a consumer that parks now must wake
	}
}

// Ready returns the channel a consumer parks on between drains. It carries at
// most one token, sent when a datagram is queued on an empty inbox and again
// by a Drain that leaves datagrams behind; after the link is closed it is
// closed, so a receive returns at once, for ever. A token promises only that
// a Drain is worth making — the datagrams may already be gone, taken by a
// Drain made for another reason — and no token is sent per datagram: a
// consumer that receives one drains, and parks again only after a Drain.
func (q *Inbox) Ready() <-chan struct{} { return q.ready }

// Dropped returns how many datagrams found the queue full and were discarded.
func (q *Inbox) Dropped() int64 { return q.dropped.Load() }

func (q *Inbox) wake() {
	q.mu.Lock()
	if !q.closed {
		select {
		case q.ready <- struct{}{}:
		default: // a token is already waiting
		}
	}
	q.mu.Unlock()
}

// close closes Ready. Idempotent. The owner calls it once no producer will
// push again; datagrams still queued stay drainable.
func (q *Inbox) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ready)
	}
	q.mu.Unlock()
}
