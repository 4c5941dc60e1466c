package main

import (
	"strings"
	"testing"
	"time"

	"clusterfds/internal/trace"
)

func TestCauseTable(t *testing.T) {
	c := newCauseTable(10*time.Second, 4)
	for _, e := range []trace.Event{
		{At: 11 * time.Second, Type: trace.TypeReportForward, Detail: "origin-new origin=n3 seq=1"},
		{At: 11 * time.Second, Type: trace.TypeReportForward, Detail: "relay origin=n3 seq=1"},
		{At: 12 * time.Second, Type: trace.TypeRetransmit, Detail: "ch-retry origin=n3 seq=1"},
		{At: 31 * time.Second, Type: trace.TypeBGWAssist, Detail: "bgw origin=n3 seq=3 -> n9"},
		{At: 31 * time.Second, Type: trace.TypeReportForward, Detail: "relay origin=n3 seq=3"},
		{At: 31 * time.Second, Type: trace.TypeDetect, Detail: "n7"}, // not a report step
	} {
		c.Emit(e)
	}
	var b strings.Builder
	c.write(&b)
	want := `cause \ epoch        0      1      2      3   total
bgw                  0      0      0      1       1
ch-retry             0      1      0      0       1
origin-new           0      1      0      0       1
relay                0      1      0      1       2
all                  0      3      0      2       5
`
	if b.String() != want {
		t.Errorf("table:\n%s\nwant:\n%s", b.String(), want)
	}
}
