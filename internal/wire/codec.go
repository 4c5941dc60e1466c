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
// equals m.WireSize(): both come from the same layout.
func Encode(m Message) []byte {
	return EncodeAppend(make([]byte, 0, m.WireSize()), m)
}

// EncodeAppend appends m's encoding (kind byte plus body) to b and returns
// the extended slice. Hot paths reuse one buffer across messages with
// EncodeAppend(buf[:0], m), eliminating the per-message allocation Encode
// pays; the appended region always spans exactly m.WireSize() bytes.
func EncodeAppend(b []byte, m Message) []byte {
	var c coder
	c.op, c.buf = encoding, append(b, byte(m.Kind()))
	walk(&c, m)
	return c.buf
}

// size is every kind's WireSize: the kind byte plus its layout, sized.
func size(m Message) int {
	var c coder
	c.op, c.off = sizing, 1
	walk(&c, m)
	return c.off
}

// Decode parses one message from b. It returns an error if the kind byte is
// unknown, the body is truncated, or trailing bytes remain — transmission
// must neither create nor alter message content (paper Section 2.2), so any
// mismatch is a hard error rather than a best-effort parse.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, errShort
	}
	m := newMessage(Kind(b[0]))
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, b[0])
	}
	var c coder
	c.op, c.buf = decoding, b[1:]
	walk(&c, m)
	return c.done(m)
}

// done ends a decode of m: Decode and DecodeInto accept and reject exactly
// the same bytes, with the same errors.
func (c *coder) done(m Message) (Message, error) {
	switch {
	case c.short:
		return nil, fmt.Errorf("wire: decoding %v: %w", m.Kind(), errShort)
	case c.off != len(c.buf):
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(c.buf)-c.off, m.Kind())
	}
	return m, nil
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

// --- the coder ---------------------------------------------------------------

// op is what a coder does with each field a layout names.
type op int

const (
	encoding op = iota // append the field to buf
	decoding           // fill the field from buf[off:]
	sizing             // add the field's width to off
)

// coder runs a layout. Every message kind has one walk method naming its
// fields in wire order; the coder either encodes, decodes or sizes them, so
// a kind's three codec paths cannot disagree. A coder on the caller's stack
// reaches walks through the static type switch in walk: passed through an
// interface call it would escape, and encoding would allocate. Only
// DecodeInto's coder, which lives in its scratch, calls them through Message.
type coder struct {
	op    op
	buf   []byte         // encoding: the output; decoding: the input
	off   int            // decoding: the bytes of buf read; sizing: the bytes counted
	short bool           // decoding: the input ran out (for good: see fail)
	s     *DecodeScratch // decoding: the arenas lists are carved from; nil for the heap
}

// fits reports whether w more input bytes remain; once they do not, the
// coder is short for good.
func (c *coder) fits(w int) bool {
	if len(c.buf)-c.off < w {
		c.fail()
		return false
	}
	return true
}

// fail marks the input short for good: off goes to its end, so every later
// read fails too.
func (c *coder) fail() { c.short, c.off = true, len(c.buf) }

func (c *coder) u8(v *uint8) {
	switch c.op {
	case decoding:
		if c.fits(1) {
			*v = c.buf[c.off]
			c.off++
		}
	case encoding:
		c.buf = append(c.buf, *v)
	default:
		c.off++
	}
}

func (c *coder) u16(v *uint16) {
	switch c.op {
	case decoding:
		if b := c.buf[c.off:]; len(b) >= 2 {
			*v = binary.LittleEndian.Uint16(b)
			c.off += 2
		} else {
			c.fail()
		}
	case encoding:
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	default:
		c.off += 2
	}
}

func (c *coder) u32(v *uint32) {
	switch c.op {
	case decoding:
		if b := c.buf[c.off:]; len(b) >= 4 {
			*v = binary.LittleEndian.Uint32(b)
			c.off += 4
		} else {
			c.fail()
		}
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	default:
		c.off += 4
	}
}

func (c *coder) u64(v *uint64) {
	switch c.op {
	case decoding:
		if b := c.buf[c.off:]; len(b) >= 8 {
			*v = binary.LittleEndian.Uint64(b)
			c.off += 8
		} else {
			c.fail()
		}
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	default:
		c.off += 8
	}
}

func (c *coder) id(v *NodeID)   { c.u32((*uint32)(v)) }
func (c *coder) epoch(v *Epoch) { c.u64((*uint64)(v)) }

// flag is one byte, 1 for true; decoding reads any nonzero byte as true.
func (c *coder) flag(v *bool) {
	switch c.op {
	case decoding:
		if c.fits(1) {
			*v = c.buf[c.off] != 0
			c.off++
		}
	case encoding:
		c.buf = append(c.buf, 0)
		if *v {
			c.buf[len(c.buf)-1] = 1
		}
	default:
		c.off++
	}
}

// f64 is the IEEE 754 bits, as u64 writes them.
func (c *coder) f64(v *float64) {
	switch c.op {
	case decoding:
		if b := c.buf[c.off:]; len(b) >= 8 {
			*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
			c.off += 8
		} else {
			c.fail()
		}
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	default:
		c.off += 8
	}
}

// elems walks every element of a list, in order. Like walk it is a type
// switch, so the coder reaches each element layout by a static call, and the
// switch runs once per list rather than once per element. (An element type
// missing here fails in width, at the first decode.)
func (c *coder) elems(l any) {
	switch l := l.(type) {
	case *[]NodeID:
		for i := range *l {
			c.id(&(*l)[i])
		}
	case *[]Rescission:
		for i := range *l {
			c.id(&(*l)[i].Node)
			c.epoch(&(*l)[i].Epoch)
		}
	case *[]GossipEntry:
		for i := range *l {
			c.id(&(*l)[i].NID)
			c.u64(&(*l)[i].Heartbeat)
		}
	case *[]SWIMEvent:
		for i := range *l {
			c.id(&(*l)[i].Node)
			c.flag(&(*l)[i].Failed)
		}
	}
}

// The list elements' encoded widths, each measured once by sizing a zero
// element through its layout in elems.
var idWidth, rescissionWidth, entryWidth, eventWidth = measure[NodeID](),
	measure[Rescission](), measure[GossipEntry](), measure[SWIMEvent]()

func measure[T any]() int {
	one := make([]T, 1)
	var c coder
	c.op = sizing
	c.elems(&one)
	return c.off
}

// width is the encoded width of one T.
func width[T any]() int {
	switch any((*T)(nil)).(type) {
	case *NodeID:
		return idWidth
	case *Rescission:
		return rescissionWidth
	case *GossipEntry:
		return entryWidth
	case *SWIMEvent:
		return eventWidth
	}
	panic("wire: no layout for this list element")
}

// list walks a uint16-counted list of fixed-width elements. Encoding panics
// past MaxUint16: lists here are bounded by cluster sizes (tens to low
// hundreds), so a longer one is corrupted state. Decoding checks the count
// against the bytes left before carving, so a hostile count cannot make the
// receiver allocate for bytes that are not there. An empty list decodes as
// nil and touches no arena; a decoded list comes from the scratch's arena for
// T, or from the heap.
func list[T any](c *coder, l *[]T) {
	if c.op == encoding && len(*l) > math.MaxUint16 {
		panic("wire: list too long")
	}
	n := uint16(len(*l))
	c.u16(&n)
	if c.op == decoding {
		if n == 0 || c.short || !c.fits(int(n)*width[T]()) {
			*l = nil
			return
		}
		*l = alloc[T](c.s, int(n))
	}
	c.elems(l)
}

// view walks a counted list of IDs as raw bytes, count included: decoding
// validates the list and keeps a view of it in the input instead of decoding
// it, and encoding copies the viewed bytes out again.
func (c *coder) view(v *[]byte) {
	switch c.op {
	case encoding:
		c.buf = append(c.buf, *v...)
	case sizing:
		c.off += len(*v)
	default:
		start := c.off
		var n uint16
		if c.u16(&n); !c.short && c.fits(int(n)*idWidth) {
			c.off += int(n) * idWidth
			*v = c.buf[start:c.off]
		}
	}
}
