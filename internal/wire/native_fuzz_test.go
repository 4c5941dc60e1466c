package wire

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecode is the hostile-bytes differential target: Decode (heap path)
// and DecodeInto (scratch path) must agree on every input — both fail, or
// both succeed with equivalent messages satisfying the size contract.
// Neither may ever panic or overread. The seed corpus under
// testdata/fuzz/FuzzDecode covers every message kind plus known-tricky
// malformed prefixes.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(m))
	}
	// Hostile shapes: empty, unknown kinds, truncations, oversized counts.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Add([]byte{byte(KindHeartbeat), 1, 2})
	f.Add([]byte{byte(KindDigest), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))

	scratch := NewDecodeScratch()
	f.Fuzz(func(t *testing.T, b []byte) {
		heap, heapErr := Decode(b)
		reused, reusedErr := DecodeInto(scratch, b)
		if (heapErr == nil) != (reusedErr == nil) {
			t.Fatalf("Decode and DecodeInto disagree on % x:\n  Decode err:     %v\n  DecodeInto err: %v",
				b, heapErr, reusedErr)
		}
		if heapErr != nil {
			return
		}
		// Compare through re-encoding, not DeepEqual: hostile float bits can
		// decode to NaN, which compares unequal to itself structurally but
		// re-encodes to the identical bytes.
		if !bytes.Equal(Encode(heap), Encode(reused)) {
			t.Fatalf("Decode and DecodeInto disagree on % x:\n  Decode:     %#v\n  DecodeInto: %#v",
				b, heap, reused)
		}
		if heap.Kind() != reused.Kind() {
			t.Fatalf("kind mismatch on % x: Decode %v, DecodeInto %v", b, heap.Kind(), reused.Kind())
		}
		if got := heap.WireSize(); got != len(b) {
			t.Fatalf("accepted %d bytes but WireSize reports %d: %#v", len(b), got, heap)
		}
		// A scratch digest holds its list in b: what the accessors and
		// WireSize report from there must be what Decode materialised.
		if d, ok := reused.(*Digest); ok {
			want := heap.(*Digest).Heard
			if d.HeardCount() != len(want) || !slices.Equal(d.HeardIDs(), want) || d.WireSize() != len(b) {
				t.Fatalf("scratch digest of % x: count %d, IDs %v, WireSize %d; Decode has %v",
					b, d.HeardCount(), d.HeardIDs(), d.WireSize(), want)
			}
		}
	})
}

// FuzzRoundTrip pins re-encode stability on every input the decoder accepts:
// decode → encode must honor WireSize, decode again, and reach a fixed point
// (the second encoding equals the first). Comparing encodings rather than
// raw input tolerates the one lossy decode step — booleans normalize any
// nonzero wire byte to 1 — while still catching any field the codec drops,
// duplicates, or reorders.
func FuzzRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		first, err := Decode(b)
		if err != nil {
			return
		}
		enc := Encode(first)
		if len(enc) != first.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize says %d: %#v", len(enc), first.WireSize(), first)
		}
		second, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v\n  input: % x\n  re-encoded: % x", err, b, enc)
		}
		if reenc := Encode(second); !bytes.Equal(reenc, enc) {
			t.Fatalf("encoding is not a fixed point:\n  first:  % x\n  second: % x", enc, reenc)
		}
	})
}
