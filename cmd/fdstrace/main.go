// Command fdstrace runs a scenario like fdsim but streams every structured
// event — transmissions, deliveries, drops, elections, detections,
// takeovers, report forwarding — as JSON lines on stdout, one object per
// event, suitable for jq or downstream tooling.
//
// Usage:
//
//	fdstrace [-nodes 40] [-field 300] [-p 0.1] [-epochs 6] [-crashes 1]
//	         [-crash-epoch 3] [-seed 1] [-level protocol|radio|causes]
//
// At -level protocol (default) only protocol-level events are emitted; at
// -level radio the per-message send/deliver/drop firehose is included. At
// -level causes no event is printed: the run ends with a table counting the
// failure-report steps (report-forward, retransmit, bgw-assist) per epoch and
// per cause — the first token of their Detail, see intercluster's note — so
// a report storm can be read off as "which cause, starting in which epoch".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"clusterfds/internal/cluster"
	"clusterfds/internal/scenario"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

func main() {
	nodes := flag.Int("nodes", 40, "number of hosts")
	field := flag.Float64("field", 300, "deployment square edge (m)")
	lossProb := flag.Float64("p", 0.1, "per-receiver message loss probability")
	epochs := flag.Int("epochs", 6, "heartbeat intervals to simulate")
	crashes := flag.Int("crashes", 1, "hosts to crash")
	crashEpoch := flag.Int("crash-epoch", 3, "epoch at whose midpoint crashes occur")
	seed := flag.Int64("seed", 1, "random seed")
	level := flag.String("level", "protocol", "event granularity: protocol, radio, causes (per-epoch x cause table)")
	flag.Parse()

	var sink trace.Sink
	var causes *causeTable
	jsonl := trace.NewJSONL(os.Stdout)
	switch *level {
	case "radio":
		sink = jsonl
	case "protocol":
		sink = protocolFilter{jsonl}
	case "causes":
		causes = &causeTable{
			interval: time.Duration(cluster.DefaultTiming().Interval),
			epochs:   *epochs,
			counts:   make(map[string][]int),
		}
		sink = causes
	default:
		fmt.Fprintf(os.Stderr, "fdstrace: unknown level %q\n", *level)
		os.Exit(2)
	}

	w := scenario.Build(scenario.Config{
		Seed:      *seed,
		Nodes:     *nodes,
		FieldSide: *field,
		LossProb:  *lossProb,
		Trace:     sink,
	})
	ce := *crashEpoch
	if ce < 0 {
		ce = 0
	}
	timing := w.Config().Timing
	w.CrashRandomAt(timing.EpochStart(wire.Epoch(ce))+timing.Interval/2, *crashes)
	w.RunEpochs(*epochs)
	if causes != nil {
		causes.write(os.Stdout)
	}
}

// causeTable counts failure-report steps by cause token and epoch.
type causeTable struct {
	interval time.Duration
	epochs   int
	counts   map[string][]int // cause -> count per epoch
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

// protocolFilter drops the radio-level firehose, keeping protocol events.
type protocolFilter struct {
	next trace.Sink
}

// Emit implements trace.Sink.
func (f protocolFilter) Emit(e trace.Event) {
	switch e.Type {
	case trace.TypeSend, trace.TypeDeliver, trace.TypeDrop:
		return
	default:
		f.next.Emit(e)
	}
}
