package par

import (
	"reflect"
	"slices"
	"testing"

	"clusterfds/internal/cluster"
	"clusterfds/internal/wire"
)

// readSide is what a replica's HostTable answers after a run.
type readSide struct {
	victims      []wire.NodeID
	operational  []wire.NodeID
	completeness [][2]int
	admitted     []bool
	falsePairs   [][2]wire.NodeID
	census       ClusterCensus
}

// TestEngineAnswersTheReadSide runs a lossless crash wave on 120 hosts over
// 500 m and reads the strip engine's HostTable: no false suspicions, a
// census that covers every operational host, every victim that was admitted
// just before its crash recorded as admitted at it, and the same answers at
// one and two workers. At two workers the crashes fire on strip workers, so
// under the race detector this also checks that a fire writes only its own
// host's row. The 24 crashes fall at the start of epoch 3, when every strip
// is busy with heartbeats, so that two workers drain crashing strips at once:
// a fire that appends to a shared slice is reported in each of six runs
// (with 4 crashes mid-epoch, in none of ten).
func TestEngineAnswersTheReadSide(t *testing.T) {
	const crashes = 24
	crashAt := cluster.DefaultTiming().EpochStart(3)
	run := func(workers int) readSide {
		e := Build(Config{Seed: 5, Nodes: 120, FieldSide: 500, Workers: workers})
		r := readSide{victims: e.CrashRandomAt(crashAt, crashes)}
		e.runTo(crashAt - 1)
		var marked []bool
		for _, v := range r.victims {
			marked = append(marked, e.Cluster(v).Marked())
		}
		e.RunEpochs(8)

		r.operational = e.Operational()
		r.falsePairs = e.FalseSuspicions()
		r.census = e.Census()
		for i, v := range r.victims {
			aware, operational := e.Completeness(v)
			r.completeness = append(r.completeness, [2]int{aware, operational})
			r.admitted = append(r.admitted, e.AdmittedAtCrash(v))
			if at, fired := e.CrashedAt(v); !fired || at != crashAt {
				t.Errorf("workers=%d: victim %v crashed at %d (fired %v), want %d", workers, v, at, fired, crashAt)
			}
			if marked[i] && !r.admitted[i] {
				t.Errorf("workers=%d: victim %v was admitted before its crash, AdmittedAtCrash is false", workers, v)
			}
		}
		if len(r.victims) != crashes || !slices.Contains(marked, true) {
			t.Errorf("workers=%d: victims %v admitted before their crash %v; want %d victims, one admitted at least",
				workers, r.victims, marked, crashes)
		}
		if len(r.falsePairs) != 0 {
			t.Errorf("workers=%d: false suspicions at p = 0: %v", workers, r.falsePairs)
		}
		if c := r.census; c.Clusterheads+c.Members+c.Unmarked != len(r.operational) {
			t.Errorf("workers=%d: census %+v does not cover the %d operational hosts", workers, c, len(r.operational))
		}
		return r
	}
	if one, two := run(1), run(2); !reflect.DeepEqual(one, two) {
		t.Errorf("read side differs with the worker count:\n1: %+v\n2: %+v", one, two)
	}
}

// TestUnknownNIDReadsNil pins that every per-host read answers nil for an
// NID no host has, NID 0 and one past the last host alike.
func TestUnknownNIDReadsNil(t *testing.T) {
	e := Build(Config{Seed: 1, Nodes: 5, FieldSide: 100})
	if e.Host(5) == nil || e.Detector(5) == nil || e.FDS(5) == nil || e.Cluster(5) == nil || e.Forwarder(5) == nil {
		t.Fatal("host 5 is missing a runtime or a protocol")
	}
	for _, id := range []wire.NodeID{0, 6} {
		if e.Host(id) != nil || e.Detector(id) != nil || e.FDS(id) != nil || e.Cluster(id) != nil || e.Forwarder(id) != nil {
			t.Errorf("NID %v: Host %v, Detector %v, FDS %v, Cluster %v, Forwarder %v; want all nil",
				id, e.Host(id), e.Detector(id), e.FDS(id), e.Cluster(id), e.Forwarder(id))
		}
	}
}
