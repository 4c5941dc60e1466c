package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"clusterfds/internal/trace"
)

// causeTable counts failure-report steps by cause token and epoch: the sink
// behind -trace causes.
type causeTable struct {
	interval time.Duration
	epochs   int
	counts   map[string][]int // cause -> count per epoch
}

func newCauseTable(interval time.Duration, epochs int) *causeTable {
	return &causeTable{interval: interval, epochs: epochs, counts: make(map[string][]int)}
}

// Emit implements trace.Sink.
func (c *causeTable) Emit(e trace.Event) {
	switch e.Type {
	case trace.TypeReportForward, trace.TypeRetransmit, trace.TypeBGWAssist:
	default:
		return
	}
	epoch := int(e.At / c.interval)
	if epoch >= c.epochs {
		return
	}
	cause, _, _ := strings.Cut(e.Detail, " ")
	if c.counts[cause] == nil {
		c.counts[cause] = make([]int, c.epochs)
	}
	c.counts[cause][epoch]++
}

// write prints one row per cause and one column per epoch, with totals.
// The origin-* rows count floods started (no transmission of their own: the
// health update was hop 0); every other row counts transmissions.
func (c *causeTable) write(w io.Writer) {
	names := make([]string, 0, len(c.counts))
	for name := range c.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s", "cause \\ epoch")
	for e := 0; e < c.epochs; e++ {
		fmt.Fprintf(w, " %6d", e)
	}
	fmt.Fprintf(w, " %7s\n", "total")
	row := func(name string, counts []int) {
		fmt.Fprintf(w, "%-15s", name)
		total := 0
		for _, n := range counts {
			fmt.Fprintf(w, " %6d", n)
			total += n
		}
		fmt.Fprintf(w, " %7d\n", total)
	}
	all := make([]int, c.epochs)
	for _, name := range names {
		row(name, c.counts[name])
		for e, n := range c.counts[name] {
			all[e] += n
		}
	}
	row("all", all)
}
