// Package membership maintains a host's view of system-wide failures: the
// set of nodes it believes have failed, with the epoch and time at which it
// learned of each failure. The failure detection service feeds this view
// from local detections, health-status updates, and inter-cluster failure
// reports; applications query it ("which hosts are gone?") and maintenance
// logic uses its size to decide when to replenish the field (Section 2.1).
package membership

import (
	"slices"
	"sort"

	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Record describes one believed failure.
type Record struct {
	// Node is the failed host.
	Node wire.NodeID
	// Epoch is the FDS epoch attributed to the failure report.
	Epoch wire.Epoch
	// LearnedAt is the local virtual time at which this host first learned
	// of the failure. The detection-latency experiments read it.
	LearnedAt sim.Time
}

// View is one host's failure knowledge. The zero value is ready to use.
type View struct {
	failed map[wire.NodeID]Record
	// alive is the tombstone of a withdrawn suspicion: per node, the latest
	// epoch in which it was proven alive (see ProveAlive). Accusations at or
	// below it are stale and ignored, so proof of life orders against
	// suspicions the way Sens et al.'s per-node "mistake" counter does.
	alive map[wire.NodeID]wire.Epoch
}

// MarkFailed records that node failed, attributed to the given epoch.
// It reports whether the fact was new to this view. Later reports about an
// already-known failure never overwrite the original record, so LearnedAt
// always reflects first knowledge. An accusation no newer than the node's
// latest proof of life is ignored: cumulative lists carry epoch 0, so once a
// node has been proven alive only an epoch-stamped detection can accuse it
// again.
func (v *View) MarkFailed(node wire.NodeID, epoch wire.Epoch, at sim.Time) bool {
	if node == wire.NoNode {
		return false
	}
	if _, known := v.failed[node]; known {
		return false
	}
	if proof, ok := v.alive[node]; ok && epoch <= proof {
		return false
	}
	if v.failed == nil {
		v.failed = make(map[wire.NodeID]Record)
	}
	v.failed[node] = Record{Node: node, Epoch: epoch, LearnedAt: at}
	return true
}

// Merge marks every listed node failed, returning how many were new.
func (v *View) Merge(nodes []wire.NodeID, epoch wire.Epoch, at sim.Time) int {
	added := 0
	for _, n := range nodes {
		if v.MarkFailed(n, epoch, at) {
			added++
		}
	}
	return added
}

// ProveAlive records that node was alive in epoch — its heartbeat was heard
// then, or a rescission pinned to that epoch names it — and withdraws a
// suspicion no newer than the proof, reporting whether one was withdrawn.
// The proof is kept whether or not a suspicion existed, so an accusation
// that is still in flight cannot poison the view after the fact.
func (v *View) ProveAlive(node wire.NodeID, epoch wire.Epoch) bool {
	if v.alive == nil {
		v.alive = make(map[wire.NodeID]wire.Epoch)
	}
	if proof, ok := v.alive[node]; !ok || epoch > proof {
		v.alive[node] = epoch
	}
	if rec, known := v.failed[node]; !known || rec.Epoch > epoch {
		return false
	}
	delete(v.failed, node)
	return true
}

// Forget removes a node from the failed set without recording proof of life
// (a host discarding a claim of its own failure).
func (v *View) Forget(node wire.NodeID) bool {
	if _, known := v.failed[node]; !known {
		return false
	}
	delete(v.failed, node)
	return true
}

// IsFailed reports whether the view believes node has failed.
func (v *View) IsFailed(node wire.NodeID) bool {
	_, known := v.failed[node]
	return known
}

// Record returns the failure record for node, if any.
func (v *View) Record(node wire.NodeID) (Record, bool) {
	r, ok := v.failed[node]
	return r, ok
}

// Len returns the number of believed failures.
func (v *View) Len() int { return len(v.failed) }

// Failed returns the believed-failed nodes in NID order.
func (v *View) Failed() []wire.NodeID {
	return v.AppendFailed(make([]wire.NodeID, 0, len(v.failed)))
}

// AppendFailed appends the believed-failed nodes to dst in NID order; only
// the appended tail is sorted. Hot paths pass a reused scratch slice so the
// per-epoch health update carries the cumulative set without reallocating it.
func (v *View) AppendFailed(dst []wire.NodeID) []wire.NodeID {
	start := len(dst)
	for n := range v.failed {
		dst = append(dst, n)
	}
	slices.Sort(dst[start:])
	return dst
}

// Records returns all failure records in NID order.
func (v *View) Records() []Record {
	out := make([]Record, 0, len(v.failed))
	for _, r := range v.failed {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
