package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// sampleMessages returns one representative populated value per message kind.
func sampleMessages() []Message {
	return []Message{
		&Heartbeat{NID: 7, Epoch: 3, Marked: true},
		&Heartbeat{NID: 1, Epoch: 0, Marked: false},
		&Digest{NID: 9, CH: 1, Epoch: 12, Heard: []NodeID{1, 2, 3, 4}},
		&Digest{NID: 9, Epoch: 12, Heard: nil},
		&HealthUpdate{From: 2, CH: 2, Epoch: 4, NewFailed: []NodeID{11}, AllFailed: []NodeID{11, 5}, Takeover: false},
		&HealthUpdate{From: 3, CH: 2, Epoch: 4, Takeover: true},
		&HealthUpdate{From: 2, CH: 2, Epoch: 6, Rescinded: []Rescission{{Node: 11, Epoch: 4}}},
		&ForwardRequest{NID: 42, Epoch: 8},
		&ForwardedUpdate{Forwarder: 6, Requester: 42,
			Update: HealthUpdate{From: 2, CH: 2, Epoch: 8, NewFailed: []NodeID{13}}},
		&ForwardAck{NID: 42, Epoch: 8},
		&FailureReport{OriginCH: 2, Seq: 77, Epoch: 8, NewFailed: []NodeID{13},
			AllFailed: []NodeID{13, 5, 11}, Rescinded: []Rescission{{Node: 4, Epoch: 7}}, Sender: 19, TargetCH: 31},
		&CHDeclare{CH: 1, Iteration: 2},
		&ClusterAnnounce{CH: 1, Epoch: 1, Members: []NodeID{1, 4, 9, 16}, DCHs: []NodeID{4, 9}},
		&GWRegister{GW: 16, AffiliateCH: 1, OtherCHs: []NodeID{31, 77}},
		&Gossip{From: 5, Entries: []GossipEntry{{NID: 1, Heartbeat: 100}, {NID: 2, Heartbeat: 99}}},
		&FloodHeartbeat{Origin: 3, Seq: 1000, TTL: 12, Relay: 55},
		&Aggregate{OriginCH: 4, Epoch: 9, Count: 12, Sum: 274.5, Min: -3.25, Max: 99.75, Sender: 6},
		&Digest{NID: 8, CH: 1, Epoch: 3, Heard: []NodeID{1}, HasReading: true, Reading: 21.125},
		&SleepNotice{NID: 14, Epoch: 6, Until: 8},
		&SWIMPing{From: 2, Target: 9, Seq: 41, OnBehalf: 7,
			Events: []SWIMEvent{{Node: 3, Failed: true}, {Node: 8, Failed: false}}},
		&SWIMPingReq{From: 2, Target: 9, Seq: 41, Via: []NodeID{4, 11, 17},
			Events: []SWIMEvent{{Node: 3, Failed: true}}},
		&SWIMAck{From: 9, To: 2, Seq: 41, OnBehalf: 9,
			Events: []SWIMEvent{{Node: 5, Failed: false}}},
		&FDQuery{From: 6, Seq: 12},
		&FDResponse{From: 9, To: 6, Seq: 12},
		&AllPairsHeartbeat{Origin: 21, Seq: 300},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		t.Run(m.Kind().String(), func(t *testing.T) {
			enc := Encode(m)
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !equivalent(m, got) {
				t.Errorf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
			}
		})
	}
}

// equivalent compares messages treating nil and empty slices as equal: a
// sender may pass either, and the codec decodes both as nil.
func equivalent(a, b Message) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

// normalize returns a shallow copy of m with every empty slice nil. It copies
// by reflection, not through the codec, so a field the codec drops shows.
func normalize(m Message) Message {
	v := reflect.New(reflect.TypeOf(m).Elem())
	v.Elem().Set(reflect.ValueOf(m).Elem())
	normalizeStruct(v.Elem())
	return v.Interface().(Message)
}

func normalizeStruct(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			if f.Len() == 0 && !f.IsNil() {
				f.Set(reflect.Zero(f.Type()))
			}
		case reflect.Struct:
			normalizeStruct(f)
		}
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	for _, m := range sampleMessages() {
		if got, want := len(Encode(m)), m.WireSize(); got != want {
			t.Errorf("%v: encoded %d bytes, WireSize says %d", m.Kind(), got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0xFF, 1, 2, 3}},
		{"zero kind", []byte{0}},
		{"truncated heartbeat", []byte{byte(KindHeartbeat), 1, 2}},
		{"truncated digest count", []byte{byte(KindDigest), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.b); err == nil {
				t.Error("Decode succeeded, want error")
			}
		})
	}
}

func TestDecodeUnknownKindError(t *testing.T) {
	_, err := Decode([]byte{0xEE})
	if !errors.Is(err, ErrUnknownKind) {
		t.Errorf("err = %v, want ErrUnknownKind", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	enc := Encode(&Heartbeat{NID: 1, Epoch: 1})
	enc = append(enc, 0xAB)
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("err = %v, want trailing-bytes error", err)
	}
}

func TestDecodeTruncationsExhaustive(t *testing.T) {
	// Every strict prefix of every sample encoding must fail to decode
	// (with an error, never a panic), except prefixes that happen to be
	// empty ID lists... there are none: sizes are fixed per content.
	for _, m := range sampleMessages() {
		enc := Encode(m)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := Decode(enc[:cut]); err == nil {
				t.Errorf("%v: prefix of %d/%d bytes decoded without error", m.Kind(), cut, len(enc))
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := &Digest{NID: 1, Epoch: 2, Heard: []NodeID{10, 20, 30}}
	c := Clone(orig).(*Digest)
	c.Heard[0] = 999
	if orig.Heard[0] != 10 {
		t.Error("mutating the clone changed the original")
	}
	if c.NID != orig.NID || c.Epoch != orig.Epoch {
		t.Error("clone lost scalar fields")
	}
}

func TestKindString(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(1); k < kindEnd; k++ {
		s := k.String()
		if strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NodeID(17).String(); got != "n17" {
		t.Errorf("NodeID(17).String() = %q, want n17", got)
	}
	if got := NoNode.String(); got != "n∅" {
		t.Errorf("NoNode.String() = %q", got)
	}
}

// TestDigestRoundTripProperty fuzzes digest contents through the codec.
func TestDigestRoundTripProperty(t *testing.T) {
	f := func(nid uint32, epoch uint64, heard []uint32) bool {
		if len(heard) > 1000 {
			heard = heard[:1000]
		}
		ids := make([]NodeID, len(heard))
		for i, h := range heard {
			ids[i] = NodeID(h)
		}
		m := &Digest{NID: NodeID(nid), Epoch: Epoch(epoch), Heard: ids}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return equivalent(m, got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFailureReportRoundTripProperty fuzzes the most complex message.
func TestFailureReportRoundTripProperty(t *testing.T) {
	f := func(origin, sender, target uint32, seq, epoch uint64, nf, af []uint32) bool {
		toIDs := func(u []uint32) []NodeID {
			if len(u) > 500 {
				u = u[:500]
			}
			ids := make([]NodeID, len(u))
			for i, x := range u {
				ids[i] = NodeID(x)
			}
			return ids
		}
		m := &FailureReport{
			OriginCH: NodeID(origin), Seq: seq, Epoch: Epoch(epoch),
			NewFailed: toIDs(nf), AllFailed: toIDs(af),
			Sender: NodeID(sender), TargetCH: NodeID(target),
		}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return equivalent(m, got) && len(Encode(m)) == m.WireSize()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	for _, m := range sampleMessages() {
		if !bytes.Equal(Encode(m), Encode(m)) {
			t.Errorf("%v: encoding not deterministic", m.Kind())
		}
	}
}

func TestAllKindsCovered(t *testing.T) {
	covered := map[Kind]bool{}
	for _, m := range sampleMessages() {
		covered[m.Kind()] = true
	}
	for k := Kind(1); k < kindEnd; k++ {
		if !covered[k] {
			t.Errorf("no sample message for kind %v", k)
		}
		if newMessage(k) == nil {
			t.Errorf("newMessage(%v) returned nil", k)
		}
	}
}

// TestEncodeAppendReuse checks EncodeAppend matches Encode byte for byte and
// is allocation-free into a warm buffer.
func TestEncodeAppendReuse(t *testing.T) {
	msgs := []Message{
		&Heartbeat{NID: 3, Epoch: 9},
		&Digest{NID: 4, CH: 1, Epoch: 9, Heard: []NodeID{1, 2, 3, 4, 5}},
		&FailureReport{OriginCH: 2, Seq: 1, Epoch: 9, NewFailed: []NodeID{7}, AllFailed: []NodeID{7}, Sender: 2},
	}
	buf := make([]byte, 0, 256)
	for _, m := range msgs {
		want := Encode(m)
		buf = EncodeAppend(buf[:0], m)
		if !bytes.Equal(want, buf) {
			t.Errorf("%v: EncodeAppend %x != Encode %x", m.Kind(), buf, want)
		}
		if len(buf) != m.WireSize() {
			t.Errorf("%v: appended %d bytes, WireSize %d", m.Kind(), len(buf), m.WireSize())
		}
	}
	// Appending after existing content preserves the prefix.
	buf = append(buf[:0], 0xAA, 0xBB)
	buf = EncodeAppend(buf, msgs[0])
	if buf[0] != 0xAA || buf[1] != 0xBB || !bytes.Equal(buf[2:], Encode(msgs[0])) {
		t.Error("EncodeAppend disturbed existing buffer content")
	}

	hb := &Heartbeat{NID: 1, Epoch: 2}
	allocs := testing.AllocsPerRun(200, func() { buf = EncodeAppend(buf[:0], hb) })
	if allocs != 0 {
		t.Errorf("EncodeAppend into warm buffer allocates %.1f/op, want 0", allocs)
	}
}
