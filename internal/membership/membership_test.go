package membership

import (
	"testing"
	"time"

	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

func TestMarkFailed(t *testing.T) {
	var v View
	if v.IsFailed(1) || v.Len() != 0 {
		t.Fatal("zero view should be empty")
	}
	if !v.MarkFailed(1, 3, sim.Time(time.Second)) {
		t.Fatal("first mark should be new")
	}
	if v.MarkFailed(1, 9, sim.Time(5*time.Second)) {
		t.Fatal("second mark should not be new")
	}
	r, ok := v.Record(1)
	if !ok || r.Epoch != 3 || r.LearnedAt != sim.Time(time.Second) {
		t.Errorf("record = %+v; first knowledge must be preserved", r)
	}
	if !v.IsFailed(1) || v.Len() != 1 {
		t.Error("view inconsistent after mark")
	}
}

func TestMarkFailedNoNode(t *testing.T) {
	var v View
	if v.MarkFailed(wire.NoNode, 1, 0) {
		t.Error("NoNode should never be recorded")
	}
}

func TestMerge(t *testing.T) {
	var v View
	added := v.Merge([]wire.NodeID{5, 3, 5, 7}, 2, 0)
	if added != 3 {
		t.Errorf("Merge added %d, want 3 (duplicate collapses)", added)
	}
	if got := v.Failed(); len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Errorf("Failed = %v, want [3 5 7]", got)
	}
	if added := v.Merge([]wire.NodeID{3, 9}, 4, 0); added != 1 {
		t.Errorf("second Merge added %d, want 1", added)
	}
}

func TestForget(t *testing.T) {
	var v View
	v.MarkFailed(4, 1, 0)
	if !v.Forget(4) {
		t.Error("Forget of known failure should return true")
	}
	if v.Forget(4) {
		t.Error("Forget of unknown failure should return false")
	}
	if v.IsFailed(4) {
		t.Error("node still failed after Forget")
	}
}

func TestRecordsSorted(t *testing.T) {
	var v View
	for _, n := range []wire.NodeID{9, 2, 5} {
		v.MarkFailed(n, 1, 0)
	}
	rs := v.Records()
	if len(rs) != 3 || rs[0].Node != 2 || rs[1].Node != 5 || rs[2].Node != 9 {
		t.Errorf("Records = %v", rs)
	}
}

func TestRecordMissing(t *testing.T) {
	var v View
	if _, ok := v.Record(1); ok {
		t.Error("Record on empty view should report !ok")
	}
}

// TestProofOfLifeOrdersAgainstAccusations: a node's latest proof of life is a
// tombstone that accusations at or below it cannot cross, whatever order the
// two arrive in.
func TestProofOfLifeOrdersAgainstAccusations(t *testing.T) {
	type step struct {
		accuse bool // MarkFailed at epoch; otherwise ProveAlive at epoch
		epoch  wire.Epoch
		want   bool // the call's result
	}
	for _, tc := range []struct {
		name   string
		steps  []step
		failed bool // believed failed at the end
	}{
		{"older accusation ignored",
			[]step{{false, 5, false}, {true, 4, false}}, false},
		{"accusation of the proof's own epoch ignored",
			[]step{{false, 5, false}, {true, 5, false}}, false},
		{"newer accusation accepted",
			[]step{{false, 5, false}, {true, 6, true}}, true},
		{"epoch-0 merge after a rescission ignored",
			[]step{{true, 3, true}, {false, 4, true}, {true, 0, false}}, false},
		{"tombstone set with no record present",
			[]step{{false, 0, false}, {true, 0, false}}, false},
		{"proof older than the record withdraws nothing",
			[]step{{true, 7, true}, {false, 6, false}}, true},
		{"proof never moves backwards",
			[]step{{false, 8, false}, {false, 2, false}, {true, 5, false}}, false},
	} {
		var v View
		for i, s := range tc.steps {
			var got bool
			if s.accuse {
				got = v.Merge([]wire.NodeID{9}, s.epoch, 0) == 1
			} else {
				got = v.ProveAlive(9, s.epoch)
			}
			if got != s.want {
				t.Errorf("%s: step %d returned %v, want %v", tc.name, i, got, s.want)
			}
		}
		if v.IsFailed(9) != tc.failed {
			t.Errorf("%s: IsFailed = %v, want %v", tc.name, !tc.failed, tc.failed)
		}
	}
}

// TestForgetLeavesNoTombstone: Forget discards a claim without vouching for
// the node, so the same accusation may return.
func TestForgetLeavesNoTombstone(t *testing.T) {
	var v View
	v.MarkFailed(4, 3, 0)
	v.Forget(4)
	if !v.MarkFailed(4, 3, 0) {
		t.Error("Forget must not block a later accusation")
	}
}
