package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// errShort reports a truncated message body.
	errShort = errors.New("wire: message truncated")
	// ErrUnknownKind reports an unrecognized kind byte.
	ErrUnknownKind = errors.New("wire: unknown message kind")
)

// Encode serializes m, prefixing the kind byte. The result's length always
// equals m.WireSize(); a test enforces this for every message type.
func Encode(m Message) []byte {
	return EncodeAppend(make([]byte, 0, m.WireSize()), m)
}

// EncodeAppend appends m's encoding (kind byte plus body) to b and returns
// the extended slice. Hot paths reuse one buffer across messages with
// EncodeAppend(buf[:0], m), eliminating the per-message allocation Encode
// pays; the appended region always spans exactly m.WireSize() bytes.
func EncodeAppend(b []byte, m Message) []byte {
	b = append(b, byte(m.Kind()))
	return m.append(b)
}

// Decode parses one message from b. It returns an error if the kind byte is
// unknown, the body is truncated, or trailing bytes remain — transmission
// must neither create nor alter message content (paper Section 2.2), so any
// mismatch is a hard error rather than a best-effort parse.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, errShort
	}
	kind := Kind(b[0])
	m := newMessage(kind)
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, b[0])
	}
	rest, err := m.decode(b[1:], nil)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(rest), kind)
	}
	return m, nil
}

// newMessage returns a zero message of the given kind, or nil for an
// unknown kind.
func newMessage(k Kind) Message {
	switch k {
	case KindHeartbeat:
		return &Heartbeat{}
	case KindDigest:
		return &Digest{}
	case KindHealthUpdate:
		return &HealthUpdate{}
	case KindForwardRequest:
		return &ForwardRequest{}
	case KindForwardedUpdate:
		return &ForwardedUpdate{}
	case KindForwardAck:
		return &ForwardAck{}
	case KindFailureReport:
		return &FailureReport{}
	case KindCHDeclare:
		return &CHDeclare{}
	case KindClusterAnnounce:
		return &ClusterAnnounce{}
	case KindGWRegister:
		return &GWRegister{}
	case KindGossip:
		return &Gossip{}
	case KindFloodHeartbeat:
		return &FloodHeartbeat{}
	case KindAggregate:
		return &Aggregate{}
	case KindSleepNotice:
		return &SleepNotice{}
	case KindSWIMPing:
		return &SWIMPing{}
	case KindSWIMPingReq:
		return &SWIMPingReq{}
	case KindSWIMAck:
		return &SWIMAck{}
	case KindFDQuery:
		return &FDQuery{}
	case KindFDResponse:
		return &FDResponse{}
	case KindAllPairsHeartbeat:
		return &AllPairsHeartbeat{}
	default:
		return nil
	}
}

// Clone round-trips m through the codec, producing an independent copy with
// no shared slices. A delivered message is scratch-backed (a digest's list,
// datagram-backed) and dies with its handler; tests that record deliveries
// keep a Clone, which is always in the heap form Decode returns.
func Clone(m Message) Message {
	c, err := Decode(Encode(m))
	if err != nil {
		// Encode/Decode of a well-formed message cannot fail; a failure
		// here is a codec bug, not a runtime condition.
		panic(fmt.Sprintf("wire: clone of %v failed: %v", m.Kind(), err))
	}
	return c
}

// --- primitive field helpers ------------------------------------------------

func appendU16(b []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendIDs writes a uint16 length followed by the IDs. Node-ID lists in
// this system are bounded by cluster sizes (tens to low hundreds), far below
// the uint16 limit; exceeding it indicates corrupted state.
func appendIDs(b []byte, ids []NodeID) []byte {
	if len(ids) > math.MaxUint16 {
		panic("wire: node ID list too long")
	}
	b = appendU16(b, uint16(len(ids)))
	for _, id := range ids {
		b = appendU32(b, uint32(id))
	}
	return b
}

func readU16(b []byte) (uint16, []byte, error) {
	if len(b) < 2 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint16(b), b[2:], nil
}

func readU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func readU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func readBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, errShort
	}
	return b[0] != 0, b[1:], nil
}

// idList validates a uint16-counted node-ID list at the head of b and
// returns its 4·n encoded bytes, still in b, and what follows them.
func idList(b []byte) (list, rest []byte, err error) {
	n, b, err := readU16(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 4*int(n) {
		return nil, nil, errShort
	}
	return b[:4*int(n)], b[4*int(n):], nil
}

// decodeIDs materialises a list idList validated, carved from s's arena when
// s is non-nil. An empty list is nil and touches no arena.
func decodeIDs(list []byte, s *DecodeScratch) []NodeID {
	n := len(list) / 4
	if n == 0 {
		return nil
	}
	var ids []NodeID
	if s != nil {
		ids = s.ids.take(n)
	} else {
		ids = make([]NodeID, n)
	}
	for i := range ids {
		ids[i] = NodeID(binary.LittleEndian.Uint32(list[4*i:]))
	}
	return ids
}

func readIDs(b []byte, s *DecodeScratch) ([]NodeID, []byte, error) {
	list, b, err := idList(b)
	if err != nil {
		return nil, nil, err
	}
	return decodeIDs(list, s), b, nil
}
