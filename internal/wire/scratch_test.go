package wire

import (
	"math/rand"
	"reflect"
	"testing"
)

// heapForm returns a DecodeInto result in the form Decode gives: a digest's
// list read through the accessor into Heard, every other message as it is. A
// DeepEqual against Decode's result then compares every field and every ID.
func heapForm(m Message) Message {
	d, ok := m.(*Digest)
	if !ok {
		return m
	}
	return &Digest{NID: d.NID, CH: d.CH, Epoch: d.Epoch, Heard: d.HeardIDs(),
		HasReading: d.HasReading, Reading: d.Reading}
}

// TestDecodeIntoMatchesDecode pins the core equivalence: for every message
// kind, DecodeInto produces a value identical to Decode's.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	s := NewDecodeScratch()
	for _, m := range sampleMessages() {
		enc := Encode(m)
		want, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: Decode: %v", m.Kind(), err)
		}
		got, err := DecodeInto(s, enc)
		if err != nil {
			t.Fatalf("%v: DecodeInto: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(heapForm(got), want) {
			t.Errorf("%v: DecodeInto = %+v, want %+v", m.Kind(), got, want)
		}
	}
}

// TestDecodeIntoReuseOverwrites exercises the single-message-live contract:
// the scratch reuses its arenas, so each DecodeInto yields a correct message
// even after thousands of decodes of varying shapes on the same scratch.
func TestDecodeIntoReuseOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewDecodeScratch()
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		m := &HealthUpdate{From: NodeID(rng.Uint32()), CH: NodeID(rng.Uint32()), Epoch: Epoch(trial)}
		for i := 0; i < n; i++ {
			m.NewFailed = append(m.NewFailed, NodeID(rng.Uint32()))
			m.AllFailed = append(m.AllFailed, NodeID(rng.Uint32()))
			m.Rescinded = append(m.Rescinded, Rescission{Node: NodeID(rng.Uint32()), Epoch: Epoch(rng.Uint32())})
		}
		got, err := DecodeInto(s, Encode(m))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, _ := Decode(Encode(m))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DecodeInto = %+v, want %+v", trial, got, want)
		}
	}
}

// TestDecodeIntoErrorsMatchDecode pins that the two entry points reject the
// same inputs with the same error text.
func TestDecodeIntoErrorsMatchDecode(t *testing.T) {
	s := NewDecodeScratch()
	bad := [][]byte{
		nil,
		{},
		{0},                // zero kind byte
		{byte(kindEnd)},    // one past the last kind
		{200},              // far out of range
		{byte(KindDigest)}, // empty body
		{byte(KindDigest), 1},
	}
	for _, m := range sampleMessages() {
		enc := Encode(m)
		bad = append(bad, enc[:len(enc)-1], append(append([]byte(nil), enc...), 0xFF))
	}
	for i, b := range bad {
		_, errWant := Decode(b)
		_, errGot := DecodeInto(s, b)
		if errWant == nil || errGot == nil {
			t.Fatalf("case %d: expected errors, got %v / %v", i, errWant, errGot)
		}
		if errWant.Error() != errGot.Error() {
			t.Errorf("case %d: DecodeInto error %q, Decode error %q", i, errGot, errWant)
		}
	}
}

// TestDecodeIntoNilScratchFallsBack lets callers pass a nil scratch and get
// Decode semantics (a heap-owned message).
func TestDecodeIntoNilScratchFallsBack(t *testing.T) {
	m := &Heartbeat{NID: 3, Epoch: 9, Marked: true}
	got, err := DecodeInto(nil, Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

// TestDecodeIntoSteadyStateAllocFree is the point of the scratch: once the
// arenas have grown, decoding allocates nothing.
func TestDecodeIntoSteadyStateAllocFree(t *testing.T) {
	s := NewDecodeScratch()
	var encs [][]byte
	for _, m := range sampleMessages() {
		encs = append(encs, Encode(m))
	}
	// Warm the arenas past the corpus's demand.
	for _, e := range encs {
		if _, err := DecodeInto(s, e); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, e := range encs {
			if _, err := DecodeInto(s, e); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeInto allocates %.1f times per corpus pass, want 0", allocs)
	}
}

// TestArenaGrowthKeepsEarlierSlicesValid verifies the chunk-abandonment
// property take documents: growth mid-message must not corrupt slices already
// handed out for the same message.
func TestArenaGrowthKeepsEarlierSlicesValid(t *testing.T) {
	var a arena[NodeID]
	first := a.take(10)
	for i := range first {
		first[i] = NodeID(i + 1)
	}
	// Force growth well past the initial chunk.
	second := a.take(4096)
	for i := range second {
		second[i] = 999
	}
	for i := range first {
		if first[i] != NodeID(i+1) {
			t.Fatalf("earlier slice corrupted at %d: %v", i, first[i])
		}
	}
}
