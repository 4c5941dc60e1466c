package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// digestOf returns a digest listing n IDs (n, n-1, …, 1: not sorted, so order
// is part of what the tests compare).
func digestOf(n int, reading bool) *Digest {
	d := &Digest{NID: 9, CH: 1, Epoch: 12, HasReading: reading}
	if reading {
		d.Reading = 21.125
	}
	for i := n; i > 0; i-- {
		d.Heard = append(d.Heard, NodeID(i))
	}
	return d
}

// TestDigestListValidatedInPlace is the fence around leaving the list in the
// datagram: for lists of 0, 1, 100 and the most the count can say, with and
// without a reading, every proper prefix of the encoding and the encoding
// plus one byte fail DecodeInto exactly as they fail Decode.
func TestDigestListValidatedInPlace(t *testing.T) {
	s := NewDecodeScratch()
	for _, n := range []int{0, 1, 100, 65535} {
		for _, reading := range []bool{false, true} {
			enc := Encode(digestOf(n, reading))
			for cut := 0; cut < len(enc); cut++ {
				_, heapErr := Decode(enc[:cut])
				_, scratchErr := DecodeInto(s, enc[:cut])
				if !errors.Is(heapErr, errShort) || !errors.Is(scratchErr, errShort) ||
					heapErr.Error() != scratchErr.Error() {
					t.Fatalf("%d IDs, reading %v, %d of %d bytes: Decode %v, DecodeInto %v; want the same truncation error",
						n, reading, cut, len(enc), heapErr, scratchErr)
				}
			}
			long := append(slices.Clone(enc), 0)
			_, heapErr := Decode(long)
			_, scratchErr := DecodeInto(s, long)
			if heapErr == nil || scratchErr == nil || heapErr.Error() != scratchErr.Error() ||
				!strings.Contains(scratchErr.Error(), "1 trailing bytes") {
				t.Errorf("%d IDs, reading %v, one byte too many: Decode %v, DecodeInto %v; want the same trailing-bytes error",
					n, reading, heapErr, scratchErr)
			}
		}
	}
}

// TestDigestFormsAgree is the property that the two forms of a received digest
// are one message: over seeded random digests, what the accessors report on
// DecodeInto's result is what Decode materialised, in the same order, and
// WireSize and Encode give the datagram back from either.
func TestDigestFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewDecodeScratch()
	for trial := 0; trial < 500; trial++ {
		sent := &Digest{NID: NodeID(rng.Uint32()), CH: NodeID(rng.Uint32()), Epoch: Epoch(rng.Uint64())}
		for i, n := 0, rng.Intn(4)*rng.Intn(200); i < n; i++ {
			sent.Heard = append(sent.Heard, NodeID(rng.Uint32()))
		}
		if rng.Intn(2) == 0 {
			sent.HasReading, sent.Reading = true, rng.NormFloat64()
		}
		enc := Encode(sent)
		m, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		heap := m.(*Digest)
		if m, err = DecodeInto(s, enc); err != nil {
			t.Fatal(err)
		}
		got := m.(*Digest)
		if got.Heard != nil {
			t.Fatalf("trial %d: DecodeInto copied the list into Heard: %v", trial, got.Heard)
		}
		if got.HeardCount() != len(sent.Heard) || heap.HeardCount() != len(sent.Heard) {
			t.Fatalf("trial %d: counts %d (scratch) and %d (heap), sent %d", trial, got.HeardCount(), heap.HeardCount(), len(sent.Heard))
		}
		if !slices.Equal(got.HeardIDs(), heap.Heard) || !slices.Equal(heap.HeardIDs(), sent.Heard) {
			t.Fatalf("trial %d: lists differ:\n scratch %v\n heap    %v\n sent    %v", trial, got.HeardIDs(), heap.Heard, sent.Heard)
		}
		if got.WireSize() != len(enc) || heap.WireSize() != len(enc) {
			t.Fatalf("trial %d: WireSize %d (scratch) and %d (heap), encoded %d", trial, got.WireSize(), heap.WireSize(), len(enc))
		}
		if !bytes.Equal(Encode(got), enc) || !bytes.Equal(Encode(heap), enc) {
			t.Fatalf("trial %d: re-encoding a received digest changed its bytes", trial)
		}
	}
}

// TestCloneOfScratchDigestOwnsItsList overwrites everything a scratch digest
// aliases — the datagram and the scratch — after cloning it.
func TestCloneOfScratchDigestOwnsItsList(t *testing.T) {
	want := digestOf(50, true)
	enc := Encode(want)
	s := NewDecodeScratch()
	m, err := DecodeInto(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	c := Clone(m)

	for i := range enc {
		enc[i] = 0xEE
	}
	other, err := DecodeInto(s, Encode(&Digest{NID: 77, CH: 78, Epoch: 79, Heard: make([]NodeID, 200)}))
	if err != nil {
		t.Fatal(err)
	}
	other.(*Digest).HeardIDs() // scribble over the ID arena too

	if !reflect.DeepEqual(c, want) {
		t.Errorf("clone changed with the buffers it was taken from:\n got  %+v\n want %+v", c, want)
	}
}

// TestUnreadDigestLeavesArenaAlone: the ID arena is touched when, and only
// when, the receiver asks for the list.
func TestUnreadDigestLeavesArenaAlone(t *testing.T) {
	s := NewDecodeScratch()
	m, err := DecodeInto(s, Encode(digestOf(100, false)))
	if err != nil {
		t.Fatal(err)
	}
	d := m.(*Digest)
	if d.HeardCount() != 100 || len(s.ids.buf) != 0 {
		t.Fatalf("after DecodeInto: count %d, %d IDs in the arena; want 100 and 0", d.HeardCount(), len(s.ids.buf))
	}
	if ids := d.HeardIDs(); len(ids) != 100 || len(s.ids.buf) != 100 || &ids[0] != &s.ids.buf[0] {
		t.Errorf("HeardIDs returned %d IDs with %d in the arena; want 100 carved from it", len(ids), len(s.ids.buf))
	}
}

// BenchmarkDecodeDigestUnread is what a member that does not judge pays for an
// overheard digest: decode into its scratch, read NID, Epoch and the count.
// ns/op must not grow with the list; `make benchcmp` pins it at 0 allocs.
func BenchmarkDecodeDigestUnread(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			enc := Encode(digestOf(n, false))
			s := NewDecodeScratch()
			sum := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := DecodeInto(s, enc)
				if err != nil {
					b.Fatal(err)
				}
				d := m.(*Digest)
				sum += int(d.NID) + int(d.Epoch) + d.HeardCount()
			}
			if want := b.N * (9 + 12 + n); sum != want {
				b.Fatalf("read %d, want %d", sum, want)
			}
		})
	}
}
