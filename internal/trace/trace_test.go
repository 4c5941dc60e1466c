package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestMemorySink(t *testing.T) {
	m := NewMemory()
	m.Emit(Event{At: time.Second, Type: TypeSend, Node: 1})
	m.Emit(Event{At: 2 * time.Second, Type: TypeDrop, Node: 2})
	m.Emit(Event{At: 3 * time.Second, Type: TypeSend, Node: 3})

	if got := len(m.Events()); got != 3 {
		t.Fatalf("Events len = %d, want 3", got)
	}
	if got := m.Count(TypeSend); got != 2 {
		t.Errorf("Count(send) = %d, want 2", got)
	}
	sends := m.OfType(TypeSend)
	if len(sends) != 2 || sends[0].Node != 1 || sends[1].Node != 3 {
		t.Errorf("OfType(send) = %v", sends)
	}

	// Events returns a copy.
	evs := m.Events()
	evs[0].Node = 99
	if m.Events()[0].Node != 1 {
		t.Error("Events aliases internal state")
	}
}

func TestMemoryFilter(t *testing.T) {
	m := NewMemory(TypeDetect, TypeFalseDetect)
	m.Emit(Event{Type: TypeSend})
	m.Emit(Event{Type: TypeDetect, Node: 5})
	m.Emit(Event{Type: TypeFalseDetect, Node: 6})
	m.Emit(Event{Type: TypeDeliver})
	if got := len(m.Events()); got != 2 {
		t.Fatalf("filtered sink kept %d events, want 2", got)
	}
}

func TestNop(t *testing.T) {
	var n Nop
	n.Emit(Event{Type: TypeSend}) // must not panic
}

func TestJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{At: time.Millisecond, Type: TypeDetect, Node: 7, Detail: "n9 failed"})
	j.Emit(Event{At: 2 * time.Millisecond, Type: TypeCrash, Node: 9})

	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Type != TypeDetect || lines[0].Node != 7 || lines[0].Detail != "n9 failed" {
		t.Errorf("first line = %+v", lines[0])
	}
}

func TestProtocolDropsRadioEvents(t *testing.T) {
	m := NewMemory()
	p := Protocol{Next: m}
	for _, typ := range []EventType{TypeSend, TypeDetect, TypeDeliver, TypeDrop, TypeReportForward} {
		p.Emit(Event{Type: typ})
	}
	got := m.Events()
	if len(got) != 2 || got[0].Type != TypeDetect || got[1].Type != TypeReportForward {
		t.Errorf("Protocol passed %v, want only the detect and report-forward events", got)
	}
}

func TestTee(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	tee := Tee{a, b, Nop{}}
	tee.Emit(Event{Type: TypeSend})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Error("tee did not fan out")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: time.Second, Type: TypeDetect, Node: 3, Detail: "x"}
	s := e.String()
	for _, want := range []string{"1s", "detect", "n3", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
