// Package baseline implements the pluggable failure-detector family the
// cluster FDS is measured against: the Detector seam (lifecycle via
// node.Protocol plus the IsSuspected/KnownFailed verdict surface), the
// New(name, Params) registry, and five flat comparison detectors:
//
//   - a gossip-style failure detector in the spirit of van Renesse, Minsky
//     and Hayden (the paper's reference [11]): every node maintains a table
//     of heartbeat counters and periodically diffuses it to its neighbors;
//     a node is suspected when its counter has not advanced for Tfail;
//   - a flat-flooding heartbeat detector: every node's heartbeat is relayed
//     network-wide with a TTL, the strawman against which Section 3 claims
//     cluster-based dissemination is "far more efficient";
//   - a SWIM-style detector (Das, Gupta, Motivala): randomized
//     ping / indirect-ping / ack probing with piggybacked membership rumors;
//   - a Sens-style query-response detector: periodic interrogation, any
//     response or overheard query is liveness evidence;
//   - an all-pairs heartbeat strawman: unrelayed periodic heartbeats and a
//     per-origin silence timeout, the bytes-on-air floor.
//
// All five run on the same hosts, radio, and kernel as the cluster-based
// FDS, so message counts, bytes, and energy are directly comparable
// (experiments Ext. C and Ext. I in DESIGN.md).
//
// All five are configured by one Params value — period, suspicion timeout,
// flood TTL, relay jitter — and nothing else: the package exposes those 4
// settable values, where five per-detector config structs once added 16 more
// that only New filled in. New checks Params at one site; SWIM's remaining
// settings are package constants. The four silence-timeout detectors share
// their IsSuspected / KnownFailed / KnownPopulation through silence, which
// reads each detector's own per-origin map. A shared conformance suite
// (conformance_test.go) holds every Detector — these and the cluster FDS —
// to the same contract: eventual detection, no self-suspicion, sorted and
// deterministic KnownFailed, rescission on recovery.
package baseline

import (
	"cmp"
	"slices"

	"clusterfds/internal/node"
	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// gossipEntry is one row of the local table.
type gossipEntry struct {
	counter   uint64
	lastRaise sim.Time
}

// Gossip is the per-host gossip failure detector protocol.
type Gossip struct {
	silence[gossipEntry] // the local table, this host's own row included

	counter uint64

	// Steady-state scratch, as in QueryResponse: every transport encodes at
	// Send, so one message and its entry buffer carry every round, and the
	// tick is bound once.
	msg    wire.Gossip
	tickFn func()
}

func newGossip(p Params) *Gossip {
	return &Gossip{silence: newSilence(p, func(e gossipEntry) sim.Time { return e.lastRaise })}
}

// Start implements node.Protocol.
func (g *Gossip) Start(h *node.Host) {
	g.host = h
	g.tickFn = g.tick
	g.heard[h.ID()] = gossipEntry{counter: 0, lastRaise: h.Now()}
	// Desynchronize the fleet: first tick lands at a random phase.
	first := sim.Time(h.Rand().Int63n(int64(g.p.Interval)))
	h.After(first, g.tickFn)
}

// tick advances the local heartbeat and diffuses the table.
func (g *Gossip) tick() {
	g.counter++
	g.heard[g.host.ID()] = gossipEntry{counter: g.counter, lastRaise: g.host.Now()}

	entries := g.msg.Entries[:0]
	for id, e := range g.heard {
		entries = append(entries, wire.GossipEntry{NID: id, Heartbeat: e.counter})
	}
	slices.SortFunc(entries, func(a, b wire.GossipEntry) int { return cmp.Compare(a.NID, b.NID) })
	g.msg.From, g.msg.Entries = g.host.ID(), entries
	g.host.Send(&g.msg)
	g.host.After(g.p.Interval, g.tickFn)
}

// Handle implements node.Protocol: merge higher counters.
func (g *Gossip) Handle(h *node.Host, m wire.Message, from wire.NodeID) {
	msg, ok := m.(*wire.Gossip)
	if !ok {
		return
	}
	now := h.Now()
	for _, e := range msg.Entries {
		cur, known := g.heard[e.NID]
		if !known || e.Heartbeat > cur.counter {
			g.heard[e.NID] = gossipEntry{counter: e.Heartbeat, lastRaise: now}
		}
	}
}

// KnownPopulation returns how many hosts this detector has heard of,
// including itself — gossip's membership discovery progress.
func (g *Gossip) KnownPopulation() int { return len(g.heard) }
