package membership

import (
	"testing"

	"clusterfds/internal/wire"
)

func TestMarkFailed(t *testing.T) {
	var v View
	if v.IsFailed(1) || v.Len() != 0 {
		t.Fatal("zero view should be empty")
	}
	if !v.MarkFailed(1, 3) {
		t.Fatal("first mark should be new")
	}
	if v.MarkFailed(1, 9) {
		t.Fatal("second mark should not be new")
	}
	if e, ok := v.Record(1); !ok || e != 3 {
		t.Errorf("Record = %v, %v; the first epoch must win", e, ok)
	}
	if !v.IsFailed(1) || v.Len() != 1 {
		t.Error("view inconsistent after mark")
	}
}

func TestMarkFailedNoNode(t *testing.T) {
	var v View
	if v.MarkFailed(wire.NoNode, 1) {
		t.Error("NoNode should never be recorded")
	}
}

func TestMerge(t *testing.T) {
	var v View
	added := v.Merge([]wire.NodeID{5, 3, 5, 7}, 2)
	if added != 3 {
		t.Errorf("Merge added %d, want 3 (duplicate collapses)", added)
	}
	if got := v.Failed(); len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Errorf("Failed = %v, want [3 5 7]", got)
	}
	if added := v.Merge([]wire.NodeID{3, 9}, 4); added != 1 {
		t.Errorf("second Merge added %d, want 1", added)
	}
}

func TestForget(t *testing.T) {
	var v View
	v.MarkFailed(4, 1)
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

// TestFailedSorted marks 41 nodes out of order: with the three TestMerge
// marks, a Failed that returned map order was sorted by chance in about one
// run in nine.
func TestFailedSorted(t *testing.T) {
	var v View
	for i := 0; i < 41; i++ {
		v.MarkFailed(wire.NodeID(1+i*17%41), 1)
	}
	got := v.Failed()
	for i, n := range got {
		if n != wire.NodeID(i+1) {
			t.Fatalf("Failed()[%d] = %v, want %v: %v", i, n, i+1, got)
		}
	}
	if len(got) != 41 {
		t.Errorf("Failed holds %d nodes, want 41", len(got))
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
				got = v.Merge([]wire.NodeID{9}, s.epoch) == 1
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
	v.MarkFailed(4, 3)
	v.Forget(4)
	if !v.MarkFailed(4, 3) {
		t.Error("Forget must not block a later accusation")
	}
}
