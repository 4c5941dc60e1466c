// Package trace provides structured event tracing for simulation runs.
// Protocol code emits typed events; sinks either discard them (the default,
// zero-cost for benchmarks), retain them in memory (for tests and example
// programs), or stream them as JSON lines (for fdsim -trace).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType classifies trace events.
type EventType string

// Event types emitted across the stack. Kept as a flat namespace so sinks
// can filter with simple string matching.
const (
	TypeSend          EventType = "send"
	TypeDeliver       EventType = "deliver"
	TypeDrop          EventType = "drop"
	TypeCrash         EventType = "crash"
	TypeClusterFormed EventType = "cluster-formed"
	TypeCHElected     EventType = "ch-elected"
	TypeGWElected     EventType = "gw-elected"
	TypeDetect        EventType = "detect"
	TypeFalseDetect   EventType = "false-detect"
	TypeTakeover      EventType = "takeover"
	TypePeerForward   EventType = "peer-forward"
	TypeReportForward EventType = "report-forward"
	TypeReportDeliver EventType = "report-deliver"
	TypeRetransmit    EventType = "retransmit"
	TypeBGWAssist     EventType = "bgw-assist"
	TypeEpochStart    EventType = "epoch-start"
	TypeViewUpdate    EventType = "view-update"
)

// Event is one trace record. Node is the acting host (0 for medium-level
// events); Detail is free-form, kept small.
type Event struct {
	At     time.Duration `json:"at"`
	Type   EventType     `json:"type"`
	Node   uint32        `json:"node,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// String renders the event for human consumption.
func (e Event) String() string {
	return fmt.Sprintf("%12v %-16s n%-5d %s", e.At, e.Type, e.Node, e.Detail)
}

// Sink consumes trace events. Implementations must tolerate a high event
// rate; Emit is on the simulator's hot path.
type Sink interface {
	Emit(Event)
}

// Nop is a Sink that discards everything.
type Nop struct{}

// Emit implements Sink.
func (Nop) Emit(Event) {}

// Memory retains events in order. It is safe for concurrent use so tests
// can inspect it while a background run proceeds (the kernel itself is
// single-threaded, but test helpers may not be).
type Memory struct {
	mu     sync.Mutex
	events []Event
	filter map[EventType]bool // nil = keep everything
}

// NewMemory returns a memory sink keeping only the given types (all types
// when none are given).
func NewMemory(types ...EventType) *Memory {
	m := &Memory{}
	if len(types) > 0 {
		m.filter = make(map[EventType]bool, len(types))
		for _, t := range types {
			m.filter[t] = true
		}
	}
	return m
}

// Emit implements Sink.
func (m *Memory) Emit(e Event) {
	if m.filter != nil && !m.filter[e.Type] {
		return
	}
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the retained events.
func (m *Memory) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// OfType returns the retained events of the given type, in order.
func (m *Memory) OfType(t EventType) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, e := range m.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many retained events have the given type.
func (m *Memory) Count(t EventType) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// JSONL streams each event as one JSON object per line, suitable for jq.
type JSONL struct {
	enc *json.Encoder
}

// NewJSONL returns a sink writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Sink. Encoding errors are deliberately swallowed: tracing
// must never abort a simulation, and a broken pipe will surface at the
// consumer end.
func (j *JSONL) Emit(e Event) {
	_ = j.enc.Encode(e)
}

// Protocol passes protocol-level events on to Next and drops the
// per-message radio events (send, deliver, drop).
type Protocol struct {
	Next Sink
}

// Emit implements Sink.
func (p Protocol) Emit(e Event) {
	switch e.Type {
	case TypeSend, TypeDeliver, TypeDrop:
		return
	}
	p.Next.Emit(e)
}

// Tee fans events out to several sinks.
type Tee []Sink

// Emit implements Sink.
func (t Tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
