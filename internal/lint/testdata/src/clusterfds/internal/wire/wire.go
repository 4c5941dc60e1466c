// Package wire is the negative-control tree's stub of the message package:
// the lifetime analyzers match Message, the exported message structs and
// DecodeInto by name and import-path suffix.
package wire

type NodeID uint32

type Message interface{ From() NodeID }

type Update struct {
	Sender NodeID
	Failed []NodeID
}

func (u *Update) From() NodeID { return u.Sender }

type DecodeScratch struct{ upd Update }

// DecodeInto parses b into s; the result dies at the next call on s.
func DecodeInto(s *DecodeScratch, b []byte) (Message, error) { return &s.upd, nil }
