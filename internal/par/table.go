package par

import (
	"fmt"
	"math/rand"
	"slices"

	"clusterfds/internal/baseline"
	"clusterfds/internal/cluster"
	"clusterfds/internal/fds"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// ClusterCensus counts the clusterheads, admitted members, gateways and
// unmarked hosts among operational hosts.
type ClusterCensus struct {
	Clusterheads, Members, Gateways, Unmarked int
}

// HostTable is a replica's host side: one row per host, in attach order,
// with an NID index, and the crash schedule. scenario.World and Engine embed
// it, so both schedule crashes and answer completeness, accuracy and the
// census from the same code. Engine attaches in NID order, so its row is
// NID−1.
//
// Rows are written serially — Attach, CrashAt — except a crash's fire,
// which writes only its own host's row: in Engine it runs on the worker
// that drains the host's strip.
type HostTable struct {
	// Picks is the replica's pick stream, from which CrashRandomAt draws
	// its victims: the serial world's kernel stream, the strip engine's
	// own control source.
	Picks *rand.Rand

	hosts      []*node.Host // dense: Engine.deliver reads it once per delivery
	rows       []hostRow
	rowOf      []int32       // NID -> row+1; 0 is no host
	crashOrder []wire.NodeID // hosts with a crash scheduled, in schedule order
}

// hostRow is a host's kernel, its detector, its protocols (zero for a flat
// detector) and its crash record: scheduled, fired and when, and whether
// the host was admitted to a cluster (Marked) as it fired.
type hostRow struct {
	k                          *sim.Kernel
	det                        baseline.Detector
	stack                      intercluster.Stack
	scheduled, fired, admitted bool
	crashedAt                  sim.Time
}

// Attach appends h's row: the kernel k that runs it, its detector d and,
// for the cluster stack, the protocols s holds.
func (t *HostTable) Attach(h *node.Host, k *sim.Kernel, d baseline.Detector, s intercluster.Stack) {
	if n := int(h.ID()) + 1 - len(t.rowOf); n > 0 {
		t.rowOf = append(t.rowOf, make([]int32, n)...)
	}
	t.hosts = append(t.hosts, h)
	t.rows = append(t.rows, hostRow{k: k, det: d, stack: s})
	t.rowOf[h.ID()] = int32(len(t.hosts))
}

// row returns id's row, or -1 for an NID no host was attached under.
func (t *HostTable) row(id wire.NodeID) int {
	if int(id) >= len(t.rowOf) {
		return -1
	}
	return int(t.rowOf[id]) - 1
}

// Host returns the host with the given NID (nil if unknown).
func (t *HostTable) Host(id wire.NodeID) *node.Host {
	if r := t.row(id); r >= 0 {
		return t.hosts[r]
	}
	return nil
}

// at returns id's row, or the zero row for an unknown NID.
func (t *HostTable) at(id wire.NodeID) hostRow {
	if r := t.row(id); r >= 0 {
		return t.rows[r]
	}
	return hostRow{}
}

// Detector returns the detector running on the given host (nil if unknown).
func (t *HostTable) Detector(id wire.NodeID) baseline.Detector { return t.at(id).det }

// FDS returns the host's cluster-based FDS (nil if unknown or flat).
func (t *HostTable) FDS(id wire.NodeID) *fds.Protocol { return t.at(id).stack.FDS }

// Cluster returns the host's cluster protocol (nil if unknown or flat).
func (t *HostTable) Cluster(id wire.NodeID) *cluster.Protocol { return t.at(id).stack.Cluster }

// Forwarder returns the host's inter-cluster forwarder (nil if unknown or
// flat).
func (t *HostTable) Forwarder(id wire.NodeID) *intercluster.Protocol { return t.at(id).stack.Forwarder }

// NodeIDs returns all host NIDs in attach order.
func (t *HostTable) NodeIDs() []wire.NodeID {
	out := make([]wire.NodeID, len(t.hosts))
	for r, h := range t.hosts {
		out[r] = h.ID()
	}
	return out
}

// CrashAt schedules a fail-stop crash of id at the given absolute time, on
// the kernel that runs id; in Engine the time must not be earlier than the
// last RunEpochs horizon. If id is still up then, the fire records whether
// it was admitted, crashes it, and stamps the instant, all in id's row. Call
// it between runs, never concurrently with one. It panics on an unknown id.
func (t *HostTable) CrashAt(at sim.Time, id wire.NodeID) {
	r := t.row(id)
	if r < 0 {
		panic(fmt.Sprintf("par: no host %v", id))
	}
	if !t.rows[r].scheduled {
		t.rows[r].scheduled = true
		t.crashOrder = append(t.crashOrder, id)
	}
	t.rows[r].k.At(at, func() {
		h, row := t.hosts[r], &t.rows[r]
		if !h.Crashed() {
			row.admitted = row.stack.Cluster != nil && row.stack.Cluster.Marked()
			h.Crash()
			row.fired, row.crashedAt = true, row.k.Now()
		}
	})
}

// CrashRandomAt schedules count crashes at the given time, of distinct
// hosts that are alive and have no crash scheduled yet, drawn from Picks,
// and returns them sorted. It shuffles every live host, then passes over
// the scheduled ones, so the shuffle spends the same draws whether or not
// earlier waves are still pending. A count below one picks nobody.
func (t *HostTable) CrashRandomAt(at sim.Time, count int) []wire.NodeID {
	candidates := slices.DeleteFunc(t.NodeIDs(), func(id wire.NodeID) bool { return t.Host(id).Crashed() })
	t.Picks.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	picked := candidates[:0] // filtered in place: writes trail reads
	for _, id := range candidates {
		if len(picked) < count && !t.at(id).scheduled {
			picked = append(picked, id)
			t.CrashAt(at, id)
		}
	}
	slices.Sort(picked)
	return picked
}

// CrashedAt returns when id's scheduled crash fired, and whether it has.
func (t *HostTable) CrashedAt(id wire.NodeID) (sim.Time, bool) {
	row := t.at(id)
	return row.crashedAt, row.fired
}

// ScheduledCrashes returns the hosts with a crash scheduled, in the order
// their first crash was scheduled. The caller must not write to it.
func (t *HostTable) ScheduledCrashes() []wire.NodeID { return slices.Clip(t.crashOrder) }

// AdmittedAtCrash reports whether id's crash has fired while it was admitted
// to a cluster (Marked). A host that was still unmarked has no clusterhead
// to miss its heartbeat, so no rule can detect it; flat detectors admit
// nobody.
func (t *HostTable) AdmittedAtCrash(id wire.NodeID) bool { return t.at(id).admitted }

// Operational returns the NIDs of hosts that are alive right now, sorted.
func (t *HostTable) Operational() []wire.NodeID {
	var out []wire.NodeID
	for _, h := range t.hosts {
		if !h.Crashed() {
			out = append(out, h.ID())
		}
	}
	slices.Sort(out) // attach order need not be NID order
	return out
}

// Completeness returns, for the given crashed subject, how many operational
// hosts currently suspect it and how many operational hosts there are.
func (t *HostTable) Completeness(subject wire.NodeID) (aware, operational int) {
	for r, h := range t.hosts {
		if h.ID() != subject && !h.Crashed() {
			operational++
			if t.rows[r].det.IsSuspected(subject) {
				aware++
			}
		}
	}
	return aware, operational
}

// FalseSuspicions returns every (observer, subject) pair where an
// operational observer currently suspects an operational subject — the
// accuracy property's violations — observers in attach order.
func (t *HostTable) FalseSuspicions() [][2]wire.NodeID {
	var out [][2]wire.NodeID
	for r, h := range t.hosts {
		if h.Crashed() {
			continue
		}
		for _, subject := range t.rows[r].det.KnownFailed() {
			if s := t.Host(subject); s != nil && !s.Crashed() {
				out = append(out, [2]wire.NodeID{h.ID(), subject})
			}
		}
	}
	return out
}

// StampSuspicions writes now into first[row] for each operational host,
// other than subject, that suspects subject and whose entry is still zero.
// It returns first, extended to one entry per row, and how many entries it
// wrote.
func (t *HostTable) StampSuspicions(subject wire.NodeID, first []sim.Time, now sim.Time) ([]sim.Time, int) {
	if n := len(t.hosts) - len(first); n > 0 {
		first = append(first, make([]sim.Time, n)...)
	}
	stamped := 0
	for r, h := range t.hosts {
		if first[r] == 0 && h.ID() != subject && !h.Crashed() && t.rows[r].det.IsSuspected(subject) {
			first[r] = now
			stamped++
		}
	}
	return first, stamped
}

// Census computes the current cluster census. It panics if a host runs a
// flat detector, which has no cluster structure.
func (t *HostTable) Census() ClusterCensus {
	var c ClusterCensus
	for r, h := range t.hosts {
		cl := t.rows[r].stack.Cluster
		switch {
		case cl == nil:
			panic("par: census requires the cluster stack")
		case h.Crashed():
		case !cl.Marked():
			c.Unmarked++
		case cl.IsCH():
			c.Clusterheads++
		default:
			c.Members++
			if cl.IsGW() {
				c.Gateways++
			}
		}
	}
	return c
}
