package montecarlo

import (
	"fmt"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// TestRuleMatchesEventLevel rebuilds the trial with medium-level tracing
// and checks that the FDS's decision agrees, trial by trial, with the
// paper's detection rule applied directly to the raw delivery events — the
// strongest available statement that the implementation computes exactly
// the rule the analysis models.
func TestRuleMatchesEventLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	const N, p = 8, 0.5
	mismatch, modelDetect, fdsDetect := 0, 0, 0
	var hbOK, dgOK, evOK, bothMiss, noEvGivenMiss int
	const trials = 2000
	for i := 0; i < trials; i++ {
		k := sim.New(1000 + int64(i))
		tr := trace.NewMemory(trace.TypeDeliver)
		params := radio.Defaults(p)
		m := radio.New(k, params, radio.WithTrace(tr))
		timing := cluster.DefaultTiming()
		center := geo.Point{X: 0, Y: 0}
		positions := make([]geo.Point, N)
		positions[0] = center
		positions[1] = geo.UniformInDisk(k.Rand(), center, 100)
		positions[2] = geo.OnCircle(center, 100-1e-6, k.Rand().Float64()*6.28)
		for j := 3; j < N; j++ {
			positions[j] = geo.UniformInDisk(k.Rand(), center, 100)
		}
		members := make([]wire.NodeID, N)
		for j := range members {
			members[j] = wire.NodeID(j + 1)
		}
		var fdss []*fds.Protocol
		var hosts []*node.Host
		for j, pos := range positions {
			h := node.New(k, m, wire.NodeID(j+1), pos)
			cl := cluster.New(cluster.Config{Timing: timing})
			cl.InstallStaticView(1, members, []wire.NodeID{2}, wire.NodeID(j+1))
			cfg := fds.DefaultConfig(timing)
			cfg.StrictModelMode = true
			f := fds.New(cfg, cl)
			h.Use(cl)
			h.Use(f)
			hosts = append(hosts, h)
			fdss = append(fdss, f)
		}
		for _, h := range hosts {
			h.Boot()
		}
		k.RunUntil(timing.Interval - 1)

		// Reconstruct from delivery events.
		subj := wire.NodeID(3)
		chGotHB, chGotDigest := false, false
		heardSubjHB := map[uint32]bool{}     // receiver -> heard subject's heartbeat
		chGotDigestFrom := map[uint32]bool{} // CH received digest from node X
		for _, e := range tr.Events() {
			switch e.Detail {
			case fmt.Sprintf("heartbeat from %v", subj):
				if e.Node == 1 {
					chGotHB = true
				}
				heardSubjHB[e.Node] = true
			case fmt.Sprintf("digest from %v", subj):
				if e.Node == 1 {
					chGotDigest = true
				}
			}
			if e.Node == 1 && len(e.Detail) > 12 && e.Detail[:11] == "digest from" {
				var from uint32
				fmt.Sscanf(e.Detail, "digest from n%d", &from)
				chGotDigestFrom[from] = true
			}
		}
		evidence := false
		for from := range chGotDigestFrom {
			if from != uint32(subj) && heardSubjHB[from] {
				evidence = true
			}
		}
		model := !chGotHB && !chGotDigest && !evidence
		actual := fdss[0].IsSuspected(subj)
		if model {
			modelDetect++
		}
		if actual {
			fdsDetect++
		}
		if model != actual {
			mismatch++
		}
		if chGotHB {
			hbOK++
		}
		if chGotDigest {
			dgOK++
		}
		if evidence {
			evOK++
		}
		if !chGotHB && !chGotDigest {
			bothMiss++
			if !evidence {
				noEvGivenMiss++
			}
		}
	}
	if mismatch != 0 {
		t.Errorf("FDS decision diverged from the event-level rule in %d/%d trials", mismatch, trials)
	}
	t.Logf("trials=%d modelDetect=%d fdsDetect=%d mismatch=%d", trials, modelDetect, fdsDetect, mismatch)
	t.Logf("P(ch got HB)=%.3f (want .5)  P(ch got digest)=%.3f (want .5)  P(evidence)=%.3f (want %.3f)",
		float64(hbOK)/trials, float64(dgOK)/trials, float64(evOK)/trials, 1-0.5399)
	t.Logf("P(bothMiss)=%.3f (want .25)  P(noEvidence|bothMiss)=%.3f (want .5399)",
		float64(bothMiss)/trials, float64(noEvGivenMiss)/float64(bothMiss))
}

// TestEvidenceGeometry measures the average
// number of in-range cluster neighbors of the circumference subject and the
// conditional evidence rate.
func TestEvidenceGeometry(t *testing.T) {
	e := ClusterExperiment{N: 8, LossProb: 0.5, Trials: 300, Seed: 100}
	e = e.defaults()
	totalNbrs := 0
	detected := 0
	digestsSentTotal := int64(0)
	for i := 0; i < e.Trials; i++ {
		tr := newTrial(e, e.Seed+int64(i), false, nil)
		// Count neighbors of the subject before running.
		subjPos := tr.hosts[tr.subject].Pos()
		n := 0
		for j, h := range tr.hosts {
			if j == tr.subject || j == 0 {
				continue
			}
			if subjPos.WithinRange(h.Pos(), 100) {
				n++
			}
		}
		totalNbrs += n
		tr.runOneExecution()
		if tr.fdss[0].IsSuspected(wire.NodeID(tr.subject + 1)) {
			detected++
		}
		digestsSentTotal += tr.medium.Sent(wire.KindDigest)
	}
	t.Logf("avg in-range neighbors of subject (excl CH): %.3f (model: %.3f)",
		float64(totalNbrs)/float64(e.Trials), 0.391*float64(e.N-2))
	t.Logf("detected: %d/%d = %.3f (model %.3f)", detected, e.Trials,
		float64(detected)/float64(e.Trials), 0.1349)
	t.Logf("avg digests sent per trial: %.2f (expect %d)", float64(digestsSentTotal)/float64(e.Trials), e.N)
}

// TestEvidenceChainPerfect severs only the subject->CH link (p=0 elsewhere):
// detection then requires zero effective neighbors, so P(detect) should
// equal P(no in-range neighbor) ~ (1-0.391)^6 = 0.052.
func TestEvidenceChainPerfect(t *testing.T) {
	e := ClusterExperiment{N: 8, LossProb: 0, Trials: 400, Seed: 42}
	e = e.defaults()
	detected, zeroNbr, detectedWithNbr := 0, 0, 0
	for i := 0; i < e.Trials; i++ {
		tr := newTrial(e, e.Seed+int64(i), false, nil)
		subj := wire.NodeID(tr.subject + 1)
		tr.medium.SetLinkLoss(subj, 1, 1.0)
		subjPos := tr.hosts[tr.subject].Pos()
		n := 0
		for j, h := range tr.hosts {
			if j != tr.subject && j != 0 && subjPos.WithinRange(h.Pos(), 100) {
				n++
			}
		}
		if n == 0 {
			zeroNbr++
		}
		tr.runOneExecution()
		if tr.fdss[0].IsSuspected(subj) {
			detected++
			if n > 0 {
				detectedWithNbr++
			}
		}
	}
	t.Logf("detected=%d zeroNbr=%d detectedDespiteNeighbors=%d / %d",
		detected, zeroNbr, detectedWithNbr, e.Trials)
	if detectedWithNbr > 0 {
		t.Errorf("%d detections despite perfect evidence chain — evidence path broken", detectedWithNbr)
	}
}
