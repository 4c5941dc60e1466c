// Dutycycle: the paper's Section 6 power-management sketch, both ways.
//
// A 120-sensor field runs three configurations of radio duty cycling side
// by side: always awake, sleep-aware (members announce their naps and the
// FDS excuses them), and naive (members just go silent — the hazard the
// paper warns about: "sleep mode may cause false detections"). A real crash
// is injected in each run so detection quality is measured alongside the
// energy bill.
//
// Run:
//
//	go run ./examples/dutycycle
package main

import (
	"fmt"

	"clusterfds/internal/scenario"
	"clusterfds/internal/sleep"
	"clusterfds/internal/trace"
)

const (
	nodes     = 120
	fieldSide = 420.0
	lossProb  = 0.05
	epochs    = 16
)

type outcome struct {
	name        string
	energy      float64
	aware       int
	operational int
	falsePairs  int
	detections  int
	sleepMsgs   int64
}

func run(name string, withSleep, announce bool) outcome {
	tr := trace.NewMemory(trace.TypeDetect)
	cfg := scenario.Config{
		Seed: 77, Nodes: nodes, FieldSide: fieldSide, LossProb: lossProb, Trace: tr,
	}
	if withSleep {
		scfg := sleep.DefaultConfig()
		scfg.Announce = announce
		cfg.Sleep = &scfg
	}
	w := scenario.Build(cfg)
	timing := w.Config().Timing
	victim := w.CrashRandomAt(timing.EpochStart(5)+timing.Interval/2, 1)[0]
	w.RunEpochs(epochs)

	aware, operational := w.Completeness(victim)
	return outcome{
		name:        name,
		energy:      w.TotalEnergySpent(),
		aware:       aware,
		operational: operational,
		falsePairs:  len(w.FalseSuspicions()),
		detections:  tr.Count(trace.TypeDetect),
		sleepMsgs:   w.MessageCounts()["tx:sleep-notice"],
	}
}

func main() {
	fmt.Printf("== radio duty cycling, three ways (%d sensors, p=%.2f, %d intervals) ==\n\n",
		nodes, lossProb, epochs)
	fmt.Printf("%-16s %12s %14s %12s %12s %12s\n",
		"mode", "energy", "crash known", "false pairs", "detections", "notices")

	results := []outcome{
		run("always-awake", false, false),
		run("announced", true, true),
		run("naive", true, false),
	}
	for _, r := range results {
		fmt.Printf("%-16s %12.0f %9d/%-4d %12d %12d %12d\n",
			r.name, r.energy, r.aware, r.operational, r.falsePairs, r.detections, r.sleepMsgs)
	}

	base := results[0]
	fmt.Printf("\nannounced sleeping: %.1f%% energy vs always-awake, same detection quality\n",
		100*results[1].energy/base.energy)
	fmt.Printf("naive sleeping:     %.1f%% energy — the false-detection churn the paper\n",
		100*results[2].energy/base.energy)
	fmt.Println("  warns about costs far more than the radio saves (each false detection")
	fmt.Println("  triggers a report flood, a rescission flood, and re-subscription traffic)")
}
