package cluster

import (
	"math"
	"time"

	"clusterfds/internal/sim"
	"clusterfds/internal/wire"
)

// Timing fixes the shared schedule of the cluster-formation algorithm and
// the failure detection service. Per the paper, both services execute at the
// epoch of every heartbeat interval φ and every round lasts Thop, the bound
// on one-hop message delay (Sections 2.2 and 4.2). Feature F5 merges the
// first round of both services: the heartbeat diffusion at the start of each
// epoch serves simultaneously as FDS round fds.R-1 and as the formation
// algorithm's neighborhood probe.
//
// Within an epoch, offsets are:
//
//	0·Thop  fds.R-1  heartbeat exchange + formation probe
//	1·Thop  fds.R-2  digest exchange; CH election among unmarked nodes
//	2·Thop  fds.R-3  health-status update; cluster-organization announce
//	3·Thop  end of R-3: DCH takeover decision, gateway registration,
//	        inter-cluster report origination, peer-forwarding requests
//	4·Thop+ peer forwarding and inter-cluster retransmissions drain
type Timing struct {
	// Thop is the per-hop delivery bound, used as the round duration and
	// as the unit of all protocol timeouts.
	Thop sim.Time
	// Interval is φ, the heartbeat interval separating FDS executions.
	// It must be much larger than a handful of Thops so an execution is
	// "a small fraction of φ" as the paper assumes.
	Interval sim.Time
}

// DefaultTiming returns the timing used across the experiments:
// Thop = 20 ms, φ = 10 s.
func DefaultTiming() Timing {
	return Timing{Thop: sim.Time(20 * time.Millisecond), Interval: sim.Time(10 * time.Second)}
}

// Valid reports whether the timing is self-consistent.
func (t Timing) Valid() bool {
	return t.Thop > 0 && t.Interval >= 8*t.Thop
}

// EpochStart returns the virtual time at which epoch e begins. The product
// saturates at the maximum representable instant instead of overflowing:
// uint64(Interval)*uint64(e) wraps for astronomically large epochs, and the
// wrapped value — reinterpreted as a signed sim.Time — could go negative,
// turning "schedule the far future" into "schedule immediately" (a scheduler
// spin). Saturated instants stay monotone and unreachable, which is what
// every caller wants from an epoch that can never arrive.
func (t Timing) EpochStart(e wire.Epoch) sim.Time {
	if e != 0 && uint64(e) > uint64(math.MaxInt64)/uint64(t.Interval) {
		return sim.Time(math.MaxInt64)
	}
	return sim.Time(uint64(t.Interval) * uint64(e))
}

// EpochOf returns the epoch containing the given instant.
func (t Timing) EpochOf(now sim.Time) wire.Epoch {
	if now < 0 {
		return 0
	}
	return wire.Epoch(uint64(now) / uint64(t.Interval))
}

// FirstEpochAt returns the first epoch that starts at or after now: where a
// protocol booted at now joins. A host booted exactly on a boundary joins
// that very epoch; one booted any later waits for the next boundary.
func (t Timing) FirstEpochAt(now sim.Time) wire.Epoch {
	e := t.EpochOf(now)
	if now > t.EpochStart(e) {
		e++
	}
	return e
}

// Round-offset helpers, all relative to the epoch start.

// R1End is the end of the heartbeat-exchange round.
func (t Timing) R1End() sim.Time { return t.Thop }

// R2End is the end of the digest-exchange round.
func (t Timing) R2End() sim.Time { return 2 * t.Thop }

// R3End is the end of the health-update round; the paper's "timeout for
// report receiving" at which peer forwarding and takeover decisions trigger.
func (t Timing) R3End() sim.Time { return 3 * t.Thop }

// JitterSpan is the exclusive upper bound on the per-sender transmission
// jitter drawn at the start of each round: a uniform draw in [0, Thop/4]
// desynchronizes broadcasts so a round's messages do not all collide at one
// instant, while Thop/4 keeps even the latest send + MaxDelay inside the
// round. Every engine (the per-host runtime and the sharded kernel) must
// draw from this same span or their traces diverge.
func (t Timing) JitterSpan() int64 { return int64(t.Thop)/4 + 1 }
