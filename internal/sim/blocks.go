package sim

import "unsafe"

// Block sizes in bytes: a payload block holds a few dozen encoded messages,
// a block of run items or cross entries a few fan-outs' worth. A carve
// larger than a block gets a block of its own size, which is then pooled
// like the rest. Smaller blocks hold less slack while they wait for their
// last reader, and reach a pool's steady state sooner; larger ones waste
// less at their tails. EXPERIMENTS.md "Deliveries cost 8 bytes and only what
// they carry" has the sweep of sizes.
const (
	payloadBlockBytes = 2 << 10
	entryBlockBytes   = 4 << 10
)

// blockLen is the length of a new block of elements of the given size:
// bytes are payloads, anything larger an entry.
func blockLen(size uintptr) int {
	if size == 1 {
		return payloadBlockBytes
	}
	return entryBlockBytes / int(size)
}

// Blocks is a pool of blocks of T, carved front to back and reused by
// virtual time: the storage of deliveries in flight, which the radio model
// bounds in time (every delivery lands within MaxDelay of its send), not in
// number. Every carve names the latest instant a reader of it is due; a full
// block is held until its owner releases the pool past that instant, so
// whether a block is free depends on virtual time alone. Released blocks
// are zeroed, so that a delivery reading one after its release reads zeros
// instead of a later carve's plausible data. The zero value is an empty
// pool; it is not safe for concurrent use.
type Blocks[T any] struct {
	cur   []T  // the block being carved; its length is what is carved
	until Time // the latest instant a reader of cur is due
	// held are the full blocks waiting for their last reader, in the order
	// they filled. An owner carves with an until that never decreases, so
	// the held blocks expire front to back.
	held []heldBlock[T]
	free [][]T

	made, released int
}

// heldBlock is a full block waiting for its last reader.
type heldBlock[T any] struct {
	blk   []T
	until Time
}

// Carve returns n elements of the current block, to be read no later than
// until; their contents are stale. A block without room for n is held until
// its last reader has fired, and carving goes on in a free block or a new
// one.
func (b *Blocks[T]) Carve(n int, until Time) []T {
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
func (b *Blocks[T]) fresh(n int) []T {
	for i := len(b.free) - 1; i >= 0; i-- {
		if blk := b.free[i]; cap(blk) >= n {
			last := len(b.free) - 1
			b.free[i] = b.free[last]
			b.free[last] = nil
			b.free = b.free[:last]
			return blk
		}
	}
	b.made++
	var zero T
	return make([]T, 0, max(blockLen(unsafe.Sizeof(zero)), n))
}

// Release frees, front to back, every held block whose last reader was due
// before the given instant. The owner calls it only once every delivery due
// before that instant has fired: the serial medium before each carve, with
// the kernel's now; the strip engine at a window barrier, with the window's
// end.
func (b *Blocks[T]) Release(before Time) {
	if len(b.held) > 0 && b.held[0].until < before {
		b.release(before)
	}
}

func (b *Blocks[T]) release(before Time) {
	n := 0
	for n < len(b.held) && b.held[n].until < before {
		blk := b.held[n].blk
		clear(blk[:cap(blk)])
		b.free = append(b.free, blk)
		n++
	}
	b.released += n
	kept := copy(b.held, b.held[n:])
	clear(b.held[kept:])
	b.held = b.held[:kept]
}

// Counts reports how many blocks the pool has made and how many times it has
// released one.
func (b *Blocks[T]) Counts() (made, released int) { return b.made, b.released }
