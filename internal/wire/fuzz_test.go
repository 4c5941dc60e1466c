package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestAllMessagesRoundTripFuzz generates random values for EVERY message
// kind via reflection and round-trips them through the codec: decoded ==
// encoded (up to nil/empty slice equivalence) and encoded length ==
// WireSize. This covers future message types automatically as long as they
// are registered in newMessage.
func TestAllMessagesRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for k := Kind(1); k < kindEnd; k++ {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			proto := newMessage(k)
			if proto == nil {
				t.Fatalf("no constructor for kind %v", k)
			}
			typ := reflect.TypeOf(proto).Elem()
			for i := 0; i < 100; i++ {
				v, ok := quick.Value(typ, rng)
				if !ok {
					t.Fatalf("cannot generate %v", typ)
				}
				msg := v.Addr().Interface().(Message)
				clampSlices(v)
				enc := Encode(msg)
				if len(enc) != msg.WireSize() {
					t.Fatalf("encoded %d bytes, WireSize %d for %#v", len(enc), msg.WireSize(), msg)
				}
				dec, err := Decode(enc)
				if err != nil {
					t.Fatalf("decode: %v (%#v)", err, msg)
				}
				if !equivalent(msg, dec) {
					t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", msg, dec)
				}
			}
		})
	}
}

// Generate implements quick.Generator for Digest, the one message with an
// unexported field (the scratch that holds a DecodeInto digest's list), which
// quick.Value would panic trying to set. It fills every exported field the way
// quick does, so a field added to Digest is still covered, and leaves the
// rest zero: the form a sender builds.
func (Digest) Generate(rng *rand.Rand, size int) reflect.Value {
	v := reflect.New(reflect.TypeOf(Digest{})).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		fv, ok := quick.Value(f.Type(), rng)
		if !ok {
			panic("wire: cannot generate Digest." + v.Type().Field(i).Name)
		}
		f.Set(fv)
	}
	return v
}

// clampSlices bounds generated slices so encodings stay under the uint16
// length limits (quick can generate up to 50 elements by default, so this
// is defensive rather than routinely active).
func clampSlices(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			if f.Len() > 1000 {
				f.Set(f.Slice(0, 1000))
			}
		case reflect.Struct:
			clampSlices(f)
		}
	}
}

// TestDecodeNeverPanicsOnGarbage hammers Decode with random byte soup: it
// must return errors, never panic (the medium never corrupts messages, but
// the codec is a public API).
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = Decode(b) // must not panic
	}
}

// TestDecodeBitFlips flips single bits in valid encodings: every outcome
// must be a clean decode or a clean error, never a panic, and a successful
// decode must still satisfy the size contract.
func TestDecodeBitFlips(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := Encode(m)
		for pos := 0; pos < len(enc); pos++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[pos] ^= 1 << bit
				dec, err := Decode(mut)
				if err != nil {
					continue
				}
				if got := dec.WireSize(); got != len(mut) {
					t.Fatalf("%v: bit flip at %d.%d decoded to wrong size %d != %d",
						m.Kind(), pos, bit, got, len(mut))
				}
			}
		}
	}
}
