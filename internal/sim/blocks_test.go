package sim

import "testing"

// TestBlocksReuseByTime walks the pool's rule: carves fill a block front to
// back, a full block is held until it is released past its latest reader,
// released blocks are zeroed and reused before any new one is made, and a
// carve larger than a block gets a block of its own.
func TestBlocksReuseByTime(t *testing.T) {
	var b Blocks[uint64]
	per := blockLen(8)
	first := b.Carve(per-1, 10)
	for i := range first {
		first[i] = 1
	}
	if len(first) != per-1 || cap(first) != per-1 {
		t.Fatalf("carve of %d has len %d, cap %d", per-1, len(first), cap(first))
	}
	b.Carve(1, 30)[0] = 1 // fills the first block, now due by 30
	b.Carve(2, 20)[0] = 2 // no room: the first block is held
	if made, _ := b.Counts(); made != 2 {
		t.Fatalf("made %d blocks, want 2", made)
	}
	b.Release(30) // the first block's last reader is due at 30: not before
	if _, released := b.Counts(); released != 0 {
		t.Fatalf("released a block whose last reader is due at the release instant")
	}
	b.Release(31)
	if _, released := b.Counts(); released != 1 || first[0] != 0 || first[per-2] != 0 {
		t.Fatalf("after Release(31): released %d, first block reads %d..%d; want 1 release and zeros", released, first[0], first[per-2])
	}
	rest := b.Carve(per-2, 40) // fills the second block
	if &rest[0] == &first[0] {
		t.Fatal("the block being carved was handed out twice")
	}
	again := b.Carve(1, 40)
	if &again[0] != &first[0] {
		t.Fatal("a new carve did not reuse the released block")
	}
	big := b.Carve(3*per, 50)
	if made, _ := b.Counts(); len(big) != 3*per || made != 3 {
		t.Fatalf("an oversized carve has len %d and the pool made %d blocks; want %d and 3", len(big), made, 3*per)
	}
}
