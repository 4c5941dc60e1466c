package transport

// slabSize is the size of one payload slab. It exceeds the largest UDP
// payload, so any datagram a UDPLink reads fits in an empty slab.
const slabSize = 64 << 10

// slabHold bounds how many retired slabs wait for their consumers. Consumers
// that keep draining release a slab soon after it retires, so only one that
// stops fills the hold; beyond it the oldest slab is left to the collector
// (the packets still queued on it keep it alive), and a port that stops
// draining cannot grow the producer's memory.
const slabHold = 4

// slabs is the producer side of a link's received payloads: each datagram is
// copied into the current slab, and a full slab is retired with each
// consumer's tail at that moment, to be reused once every one of those
// consumers has published (Inbox.done) a drain at or past it. Drain's
// callback returns before done moves, which is the Packet contract: a payload
// is valid until the callback returns. So no payload costs an allocation and
// no datagram costs an atomic operation beyond the inbox's own.
//
// A slabs belongs to one producer at a time: a ChanMesh under its lock, a
// UDPLink's reader goroutine.
type slabs struct {
	cur  *slab
	used int     // bytes of cur handed out
	held []*slab // retired and not yet reused, oldest first
}

// slab is one block of payload bytes and, while retired, the drains it waits
// for.
type slab struct {
	buf   []byte
	marks []slabMark // reused with the slab
}

// slabMark is one consumer's tail when its slab was retired: every datagram
// it was handed from the slab lies below that index.
type slabMark struct {
	q    *Inbox
	tail uint64
}

// carve returns a copy of p in the current slab. consumers are the inboxes
// that may queue a payload carved here; a full slab is retired against them.
func (s *slabs) carve(p []byte, consumers ...*Inbox) []byte {
	if len(p) > slabSize {
		return append([]byte(nil), p...) // longer than a slab: a copy of its own
	}
	if s.cur == nil || s.used+len(p) > slabSize {
		s.retire(consumers...)
		s.cur = s.next()
	}
	end := s.used + len(p)
	b := s.cur.buf[s.used:end:end]
	copy(b, p)
	s.used = end
	return b
}

// retire sets the current slab aside until every consumer has drained past
// its tail of this moment; a consumer that has nothing undrained is not
// waited for. Retiring an empty or absent slab does nothing.
func (s *slabs) retire(consumers ...*Inbox) {
	c := s.cur
	if c == nil || s.used == 0 {
		return
	}
	c.marks = c.marks[:0]
	for _, q := range consumers {
		if t := q.tail.Load(); q.done.Load() != t {
			c.marks = append(c.marks, slabMark{q: q, tail: t})
		}
	}
	if len(s.held) == slabHold {
		s.held = append(s.held[:0], s.held[1:]...) // the oldest goes to the collector
	}
	s.held = append(s.held, c)
	s.cur, s.used = nil, 0
}

// next returns the oldest held slab that every consumer has released, or a
// new one.
func (s *slabs) next() *slab {
	for i, h := range s.held {
		if h.released() {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return h
		}
	}
	return &slab{buf: make([]byte, slabSize)}
}

// released reports whether every consumer the slab waits for has finished a
// drain at or past its mark.
func (c *slab) released() bool {
	for _, m := range c.marks {
		if m.q.done.Load() < m.tail {
			return false
		}
	}
	return true
}
