package baseline

import (
	"fmt"
	"slices"

	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Detector is the pluggable failure-detector seam: lifecycle (it is a
// node.Protocol, so it boots and receives messages like any other module on
// the host's radio) plus the query surface every FD in the repository
// answers. The flat baselines here, and structurally the cluster-based
// fds.Protocol, all implement it, so scenarios, metrics, and the head-to-head
// sweep matrix treat every detector uniformly.
type Detector interface {
	node.Protocol
	// IsSuspected reports whether the host suspects id has failed.
	IsSuspected(id wire.NodeID) bool
	// KnownFailed returns all suspected hosts in NID order.
	KnownFailed() []wire.NodeID
}

// Params is the one knob set every flat detector takes: one period, one
// suspicion timeout, and the flood-specific extras. Detector-specific
// constants (SWIM's probe timeout and piggyback budget) are fixed or derived
// from these, so every detector in a study is configured from the same
// numbers and the comparison stays fair.
type Params struct {
	// Interval is the detector's protocol period (heartbeat, gossip round,
	// probe period, or query period).
	Interval sim.Time
	// SuspectAfter is how long liveness evidence may be absent before a
	// node is suspected. Must be at least 2*Interval. SWIM's verdicts come
	// from probe timeouts instead, so it checks but does not use it.
	SuspectAfter sim.Time
	// TTL bounds flood relaying (flood only; must be at least 1 there).
	TTL uint8
	// RelayJitter spreads flood relays and query responses over a short
	// window to avoid synchronized bursts; zero disables it.
	RelayJitter sim.Time
}

// New constructs a flat detector by name, or reports why p cannot configure
// it. Names() lists the valid names. The cluster-based FDS is not
// constructible here — it needs the whole clustering stack under it — and is
// composed by internal/scenario, which exposes it under the same seam.
func New(name string, p Params) (Detector, error) {
	switch {
	case p.Interval < swimProbeDivisor:
		return nil, fmt.Errorf("baseline: %s: Interval %v is under %d ns (SWIM probes time out after Interval/%d)",
			name, p.Interval, swimProbeDivisor, swimProbeDivisor)
	case p.SuspectAfter < 2*p.Interval:
		return nil, fmt.Errorf("baseline: %s: SuspectAfter %v is under 2*Interval (%v)", name, p.SuspectAfter, 2*p.Interval)
	case name == "flood" && p.TTL < 1:
		return nil, fmt.Errorf("baseline: flood: TTL is 0, must be at least 1")
	}
	switch name {
	case "gossip":
		return newGossip(p), nil
	case "flood":
		return newFlood(p), nil
	case "swim":
		return newSWIM(p), nil
	case "query-response":
		return newQueryResponse(p), nil
	case "all-pairs":
		return newAllPairs(p), nil
	}
	return nil, fmt.Errorf("baseline: unknown detector %q (have %v)", name, Names())
}

// Names returns the flat detector names New accepts, sorted.
func Names() []string {
	return []string{"all-pairs", "flood", "gossip", "query-response", "swim"}
}

// silence is the liveness half of the four silence-timeout detectors
// (all-pairs, flood, gossip, query-response): each keeps its own map from
// origin to a record of when it was last heard, and an origin heard once but
// silent for longer than SuspectAfter is suspected. It reads the detector's
// map in place — the Handle paths write it exactly as before — so
// IsSuspected is one map probe.
type silence[V any] struct {
	p     Params
	host  *node.Host
	heard map[wire.NodeID]V
	last  func(V) sim.Time // when the record's origin was last heard
}

func newSilence[V any](p Params, last func(V) sim.Time) silence[V] {
	return silence[V]{p: p, heard: make(map[wire.NodeID]V), last: last}
}

// IsSuspected implements Detector. A host never heard of is not suspected.
func (s *silence[V]) IsSuspected(id wire.NodeID) bool {
	v, known := s.heard[id]
	return known && s.host.Now()-s.last(v) > s.p.SuspectAfter
}

// KnownFailed implements Detector.
func (s *silence[V]) KnownFailed() []wire.NodeID {
	var out []wire.NodeID
	for id := range s.heard {
		if id != s.host.ID() && s.IsSuspected(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// KnownPopulation returns how many origins this detector has heard, plus
// itself. (Gossip's table holds the host itself, so Gossip overrides it.)
func (s *silence[V]) KnownPopulation() int { return len(s.heard) + 1 }

// recordPool hands out the pooled records a detector threads through
// Host.AfterArg for jittered or deferred work, so no timer needs a capturing
// closure. Records are allocated in blocks of recordBlock — how many a host
// has in flight rises with fan-in, so one-at-a-time growth would allocate
// every epoch — and made counts every record ever allocated. A record whose
// host crashes before it fires is never put back; the crash guard keeps it
// from running, and the host never takes another.
type recordPool[T any] struct {
	free []*T
	made int
}

const recordBlock = 8

func (p *recordPool[T]) take() *T {
	if len(p.free) == 0 {
		blk := make([]T, recordBlock)
		for i := range blk {
			p.free = append(p.free, &blk[i])
		}
		p.made += recordBlock
	}
	n := len(p.free)
	r := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return r
}

func (p *recordPool[T]) put(r *T) { p.free = append(p.free, r) }
