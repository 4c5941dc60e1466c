package par

import "clusterfds/internal/sim"

// Block sizes: a payload block holds about a hundred encoded messages, a
// cross or item block several barriers' worth of one strip's arrivals. A
// batch larger than a block gets a block of its own size, which is then
// pooled like the rest. Smaller blocks hold less slack while they wait for
// their last reader; EXPERIMENTS.md "The strip engine runs on recycled
// memory" has the sweep of sizes.
const (
	payloadBlock = 4 << 10
	entryBlock   = 256
)

// blocks is one strip's pool of T blocks, carved front to back and reused by
// virtual time. Every carve names the latest instant a reader of it is due;
// a block is reused only at a window barrier whose end is past the latest of
// those instants (release), so whether a block is free depends on virtual
// time alone and is the same at every worker count. A payload pool is carved
// by its strip's worker during a drain and released at the barrier; a cross
// or item pool is touched only at the barrier. The pool never shares a block
// with another strip.
type blocks[T any] struct {
	size  int      // elements per block
	cur   []T      // the block being carved; its length is what is carved
	until sim.Time // the latest instant a reader of cur is due
	held  []heldBlock[T]
	free  [][]T

	// scrub zeroes each block as it is released, so that a delivery reading
	// a block after its release reads junk instead of a later carve's
	// plausible data, and scrubs counts the releases. Tests set it; see
	// TestBlocksOutliveTheirReaders.
	scrub  bool
	scrubs int
}

// heldBlock is a full block waiting for its last reader.
type heldBlock[T any] struct {
	blk   []T
	until sim.Time
}

// carve returns n elements of the current block, to be read no later than
// until; their contents are stale. A block without room for n is held until
// its last reader has fired, and carving goes on in a free block or a new
// one.
func (b *blocks[T]) carve(n int, until sim.Time) []T {
	if cap(b.cur)-len(b.cur) < n {
		if cap(b.cur) > 0 {
			b.held = append(b.held, heldBlock[T]{b.cur[:0], b.until})
		}
		b.cur, b.until = b.fresh(n), until
	}
	off := len(b.cur)
	b.cur = b.cur[:off+n]
	b.until = max(b.until, until)
	return b.cur[off : off+n : off+n]
}

// fresh takes the most recently freed block with room for n, or makes one.
func (b *blocks[T]) fresh(n int) []T {
	for i := len(b.free) - 1; i >= 0; i-- {
		if blk := b.free[i]; cap(blk) >= n {
			last := len(b.free) - 1
			b.free[i] = b.free[last]
			b.free[last] = nil
			b.free = b.free[:last]
			return blk
		}
	}
	return make([]T, 0, max(b.size, n))
}

// release frees every held block whose last reader was due before end. Call
// it only at the barrier that closes the window ending at end: every strip
// has then drained through end, and the only deliveries due at or before end
// still to fire are cross-strip ones due exactly at end, which this barrier
// injects; hence before, not at.
func (b *blocks[T]) release(end sim.Time) {
	kept := b.held[:0]
	for _, h := range b.held {
		if h.until >= end {
			kept = append(kept, h)
			continue
		}
		if b.scrub {
			clear(h.blk[:cap(h.blk)])
			b.scrubs++
		}
		b.free = append(b.free, h.blk)
	}
	clear(b.held[len(kept):])
	b.held = kept
}
