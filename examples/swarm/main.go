// Swarm: a micro-UAV swarm losing its clusterheads under heavy message
// loss — the stress case for the deputy-clusterhead machinery.
//
// The paper's CH-failure rule lets the highest-ranked deputy clusterhead
// detect a dead CH (no heartbeat, no digest, no digest evidence, no health
// update) and take over at the end of fds.R-3; if the first deputy is dead
// too, the second steps up one round later. This example crashes every
// clusterhead simultaneously at p = 0.3 and watches the takeover cascade
// and the re-formed hierarchy.
//
// Run:
//
//	go run ./examples/swarm
package main

import (
	"fmt"
	"strings"

	"clusterfds/internal/analysis"
	"clusterfds/internal/scenario"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

func main() {
	fmt.Println("== UAV swarm: decapitation strike on every clusterhead (p = 0.3) ==")
	tr := trace.NewMemory(trace.TypeTakeover, trace.TypeDetect, trace.TypeFalseDetect)
	w := scenario.Build(scenario.Config{
		Seed:      21,
		Nodes:     150,
		FieldSide: 500,
		LossProb:  0.3,
		Trace:     tr,
	})
	timing := w.Config().Timing

	w.RunEpochs(3)
	before := w.Census()
	fmt.Printf("after formation: %d clusters, %d members, %d gateways\n",
		before.Clusterheads, before.Members, before.Gateways)

	// Find and schedule the simultaneous loss of every clusterhead.
	var chs []wire.NodeID
	for _, id := range w.NodeIDs() {
		if w.Cluster(id).IsCH() {
			chs = append(chs, id)
		}
	}
	fmt.Printf("crashing all %d clusterheads at once: %v\n\n", len(chs), chs)
	for _, ch := range chs {
		w.CrashAt(timing.EpochStart(3)+timing.Interval/2, ch)
	}

	for e := 4; e <= 14; e++ {
		w.RunEpochs(e)
		c := w.Census()
		fmt.Printf("epoch %2d: %2d CHs, %3d members, %2d unadmitted, takeovers: %d, false suspicions: %d\n",
			e, c.Clusterheads, c.Members, c.Unmarked, tr.Count(trace.TypeTakeover), len(w.FalseSuspicions()))
	}

	// Every surviving host must know about every dead clusterhead.
	fmt.Println("\ndissemination of the clusterhead failures:")
	for _, ch := range chs {
		aware, operational := w.Completeness(ch)
		fmt.Printf("  %v: %d/%d operational hosts aware\n", ch, aware, operational)
	}

	conflicts, selfListed := 0, 0
	for _, e := range tr.OfType(trace.TypeFalseDetect) {
		if strings.HasPrefix(e.Detail, "takeover by") {
			conflicts++
		} else {
			selfListed++
		}
	}
	fmt.Printf("\ntakeover events: %d; detections: %d\n", tr.Count(trace.TypeTakeover), tr.Count(trace.TypeDetect))
	fmt.Printf("conflicting takeovers (operational CH deposed): %d; rescinded self-accusations: %d\n",
		conflicts, selfListed)
	fmt.Printf("false suspicions outstanding: %d (churn, not permanent: rescind propagation\n", len(w.FalseSuspicions()))
	fmt.Printf("  withdraws them; at ~9-member clusters and p=0.3 the paper's own formula\n")
	fmt.Printf("  predicts P(false detection) ≈ %.3f per member-epoch — density is the cure)\n",
		analysis.FalseDetection(9, 0.3))
}
