// Gossipcompare: the paper's scalability argument, measured.
//
// Section 3 claims the two-tier cluster architecture disseminates
// system-wide information "far more efficiently than with flat flooding",
// and the related-work section positions the FDS against gossip-style
// detectors. This example runs the same field, the same crash, and the same
// wall of virtual time under all three stacks and compares message volume,
// bytes, energy, detection quality, and latency.
//
// Run:
//
//	go run ./examples/gossipcompare
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"clusterfds/internal/scenario"
	"clusterfds/internal/stats"
)

const (
	nodes     = 250
	fieldSide = 800.0
	lossProb  = 0.1
	epochs    = 10
)

type result struct {
	stack       scenario.Stack
	txTotal     int64
	txBytes     int64
	energy      float64
	aware       int
	operational int
	meanLat     float64
	maxLat      float64
}

func run(stack scenario.Stack) result {
	w := scenario.Build(scenario.Config{
		Seed:      99,
		Nodes:     nodes,
		FieldSide: fieldSide,
		LossProb:  lossProb,
		Stack:     stack,
		// Baselines get the same period as the FDS's heartbeat interval,
		// so every stack pays for the same number of "rounds".
	})
	timing := w.Config().Timing
	victim := w.CrashRandomAt(timing.EpochStart(4)+timing.Interval/2, 1)[0]
	w.RunEpochs(epochs)

	r := result{stack: stack}
	counts := w.MessageCounts()
	for k, v := range counts {
		if len(k) > 3 && k[:3] == "tx:" {
			r.txTotal += v
		}
	}
	r.txBytes = counts["tx-bytes"]
	r.energy = w.TotalEnergySpent()
	r.aware, r.operational = w.Completeness(victim)
	lat := stats.NewSummary(false)
	for _, l := range w.DetectionLatencies(victim) {
		lat.Add(time.Duration(l).Seconds())
	}
	r.meanLat, r.maxLat = lat.Mean(), lat.Max()
	return r
}

func main() { report(os.Stdout) }

// report runs the three stacks once each and prints the comparison table.
func report(out io.Writer) {
	fmt.Fprintf(out, "== detector stack comparison: %d nodes, %.0fm field, p=%.2f, %d intervals ==\n\n",
		nodes, fieldSide, lossProb, epochs)
	fmt.Fprintf(out, "%-12s %12s %14s %12s %12s %10s %8s\n",
		"stack", "tx msgs", "tx bytes", "energy", "aware", "mean lat", "max lat")

	var rs []result
	for _, stack := range []scenario.Stack{scenario.StackClusterFDS, scenario.StackGossip, scenario.StackFlood} {
		r := run(stack)
		rs = append(rs, r)
		fmt.Fprintf(out, "%-12v %12d %14d %12.0f %7d/%-4d %9.1fs %7.1fs\n",
			r.stack, r.txTotal, r.txBytes, r.energy, r.aware, r.operational, r.meanLat, r.maxLat)
	}

	fmt.Fprintln(out, "\nrelative to the cluster-based FDS:")
	base := rs[0]
	for _, r := range rs[1:] {
		fmt.Fprintf(out, "  %-8v sends %5.1fx the messages, %5.1fx the bytes, spends %5.1fx the energy\n",
			r.stack,
			ratio(r.txTotal, base.txTotal),
			ratio(r.txBytes, base.txBytes),
			r.energy/base.energy)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
