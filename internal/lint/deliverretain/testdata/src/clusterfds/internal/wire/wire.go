// Package wire is a fixture stub mirroring the shape of the real wire
// package: the Message interface plus the message structs the lifetime
// fixtures retain. The analyzer matches it by import-path suffix.
package wire

type NodeID uint32

type Epoch uint64

type Kind uint8

type Rescission struct {
	Node  NodeID
	Epoch Epoch
}

type Message interface {
	MsgKind() Kind
}

type Heartbeat struct {
	From  NodeID
	Epoch Epoch
}

func (*Heartbeat) MsgKind() Kind { return 1 }

// Digest mirrors the real one's surface: a received digest is read through
// its accessors, whose bodies the handler's package cannot see.
type Digest struct {
	NID   NodeID
	Epoch Epoch
	Heard []NodeID
}

func (*Digest) MsgKind() Kind { return 2 }

func (m *Digest) HeardCount() int { return len(m.Heard) }

func (m *Digest) HeardIDs() []NodeID { return m.Heard }

type HealthUpdate struct {
	From      NodeID
	CH        NodeID
	Epoch     Epoch
	Takeover  bool
	NewFailed []NodeID
	AllFailed []NodeID
	Rescinded []Rescission
}

func (*HealthUpdate) MsgKind() Kind { return 3 }

type FailureReport struct {
	OriginCH  NodeID
	Sender    NodeID
	TargetCH  NodeID
	Seq       uint64
	NewFailed []NodeID
	AllFailed []NodeID
	Rescinded []Rescission
}

func (*FailureReport) MsgKind() Kind { return 7 }
