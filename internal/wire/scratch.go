package wire

import "fmt"

// DecodeScratch is a reusable decode workspace: one long-lived message value
// per kind plus growable arenas for the variable-length fields (node-ID
// lists, rescission lists, gossip tables). DecodeInto parses into the
// workspace instead of the heap, so a receiver that decodes millions of
// messages over a run allocates only while the arenas grow to the working-set
// size and nothing afterwards.
//
// The price is aliasing: a message returned by DecodeInto, including every
// slice it carries, is owned by the scratch and is overwritten by the next
// DecodeInto call on the same scratch. Handlers must either finish with the
// message before returning or copy the parts they keep (see radio.Medium's
// delivery contract). Handlers that need a heap-owned message can still use
// Decode, which is unchanged.
//
// A list its receiver may ignore is not copied at all: DecodeInto validates a
// Digest's Heard list in place and the scratch keeps a view of those datagram
// bytes (Digest.HeardIDs decodes them into the ids arena on demand). Such a
// message aliases the datagram as well as the scratch, so the caller keeps b
// unchanged for as long as it uses the message — every transport here holds
// the datagram until Deliver returns.
//
// A DecodeScratch must not be shared between hosts that can hold messages
// concurrently; in this repository each attached receiver gets its own.
type DecodeScratch struct {
	msgs [kindEnd]Message
	// heard is the Heard list of the scratch's Digest: validated, and still
	// in the datagram it came in, 4 bytes per ID with the count stripped.
	heard       []byte
	ids         arena[NodeID]
	rescissions arena[Rescission]
	entries     arena[GossipEntry]
	events      arena[SWIMEvent]
}

// NewDecodeScratch returns a workspace with every per-kind message value
// preallocated.
func NewDecodeScratch() *DecodeScratch {
	s := &DecodeScratch{}
	for k := KindHeartbeat; k < kindEnd; k++ {
		s.msgs[k] = newMessage(k)
	}
	return s
}

// DecodeInto parses one message from b into s, performing exactly the same
// validation as Decode (unknown kind, truncation, trailing bytes are hard
// errors). The returned message and its slices are valid only until the next
// DecodeInto call on s, and only while b is unchanged (a Digest reads its
// list from b); callers that outlive either must copy. A nil
// scratch falls back to Decode, so code can be written against DecodeInto
// unconditionally.
func DecodeInto(s *DecodeScratch, b []byte) (Message, error) {
	if s == nil {
		return Decode(b)
	}
	if len(b) == 0 {
		return nil, errShort
	}
	kind := Kind(b[0])
	if kind < KindHeartbeat || kind >= kindEnd {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, b[0])
	}
	m := s.msgs[kind]
	s.ids.reset()
	s.rescissions.reset()
	s.entries.reset()
	s.events.reset()
	rest, err := m.decode(b[1:], s)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(rest), kind)
	}
	return m, nil
}

// arena hands out sub-slices of one reused backing buffer. reset rewinds it;
// take carves the next n elements. When the current chunk is too small, take
// allocates a fresh, larger chunk and abandons the old one — slices already
// carved from the old chunk stay valid (the message referencing them keeps it
// alive), and once the chunk has grown to the peak per-message demand the
// arena never allocates again.
type arena[T any] struct {
	buf []T
}

func (a *arena[T]) take(n int) []T {
	if cap(a.buf)-len(a.buf) < n || a.buf == nil {
		c := 2 * cap(a.buf)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		a.buf = make([]T, 0, c)
	}
	end := len(a.buf) + n
	s := a.buf[len(a.buf):end:end]
	a.buf = a.buf[:end]
	return s
}

func (a *arena[T]) reset() { a.buf = a.buf[:0] }
