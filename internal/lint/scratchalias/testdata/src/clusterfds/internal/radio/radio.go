// Package radio is the scratchalias fixture: scratch-backed decode results
// must die with the delivery.
package radio

import "clusterfds/internal/wire"

type Receiver interface {
	Deliver(m wire.Message, from wire.NodeID)
}

type Medium struct {
	scratch  *wire.DecodeScratch
	lastMsg  wire.Message
	lastSeen []wire.NodeID
}

// badRetain stores the scratch-backed result (and a slice reached through
// it) into fields that outlive the decode.
func (m *Medium) badRetain(buf []byte) {
	decoded, err := wire.DecodeInto(m.scratch, buf)
	if err != nil {
		return
	}
	m.lastMsg = decoded // want `scratch-backed decode result stored in field m\.lastMsg`
	if hb, ok := decoded.(*wire.Heartbeat); ok {
		m.lastSeen = hb.NewFailed // want `scratch-backed decode result stored in field m\.lastSeen`
	}
}

// goodDeliver hands the result to the receiver synchronously — the
// contract Deliver implementations are checked against separately.
func (m *Medium) goodDeliver(rcv Receiver, buf []byte, from wire.NodeID) {
	decoded, err := wire.DecodeInto(m.scratch, buf)
	if err != nil {
		return
	}
	rcv.Deliver(decoded, from)
}

// goodCopy keeps an owned deep copy.
func (m *Medium) goodCopy(buf []byte) {
	decoded, err := wire.DecodeInto(m.scratch, buf)
	if err != nil {
		return
	}
	if hb, ok := decoded.(*wire.Heartbeat); ok {
		m.lastSeen = append(m.lastSeen[:0], hb.NewFailed...)
	}
}

// helperChain shows taint following a same-package helper: decode here,
// retain two calls away.
func (m *Medium) helperChain(buf []byte) {
	decoded, _ := wire.DecodeInto(m.scratch, buf)
	m.stash(decoded)
}

func (m *Medium) stash(msg wire.Message) {
	m.lastMsg = msg // want `scratch-backed decode result stored in field m\.lastMsg`
}
