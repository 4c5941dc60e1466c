// Package sleep implements radio duty-cycling on top of the cluster
// architecture — the power-management direction the paper's Section 6
// sketches: "a cluster-based architecture may support sleep/wakeup power
// management strategies ... since clustering may naturally help circumvent
// connectivity problems caused by node sleeping. On the other hand, sleep
// mode may cause false detections."
//
// The policy follows the paper's hint: only ordinary members nap — hosts
// with structural duties (clusterheads, deputies, gateway candidates, and
// border nodes) stay awake, so the cluster skeleton keeps functioning.
// Members sleep on a fixed duty cycle, phase-shifted by NID so the cluster
// never naps all at once.
//
// Two modes:
//
//   - Announced (default): before napping, the member broadcasts a
//     SleepNotice; the FDS excuses announced sleepers from the detection
//     rule, so duty-cycling causes no false detections.
//   - Naive (Announce=false): the member just goes silent. The FDS then
//     detects it as failed — the problem the paper warns about, kept
//     reproducible for the ablation benchmarks.
package sleep

import (
	"fmt"

	"clusterfds/internal/cluster"
	"clusterfds/internal/node"
	"clusterfds/internal/trace"
	"clusterfds/internal/wire"
)

// Config parameterizes the duty cycle.
type Config struct {
	// Period is the duty-cycle length in epochs.
	Period wire.Epoch
	// NapEpochs is how many consecutive epochs of each period the radio is
	// off. Must be < Period.
	NapEpochs wire.Epoch
	// Announce selects sleep-aware behaviour (send a SleepNotice and be
	// excused) versus the naive silence the paper warns about.
	Announce bool
}

// DefaultConfig naps one epoch in four, announced.
func DefaultConfig() Config {
	return Config{Period: 4, NapEpochs: 1, Announce: true}
}

// Valid reports whether the configuration is coherent.
func (c Config) Valid() bool {
	return c.Period >= 2 && c.NapEpochs >= 1 && c.NapEpochs < c.Period
}

// Protocol is the per-host duty-cycling policy.
type Protocol struct {
	cfg     Config
	host    *node.Host
	cluster *cluster.Protocol

	naps int
}

// New returns a sleep policy bound to the co-resident cluster protocol. It
// runs on that protocol's timing.
func New(cfg Config, cl *cluster.Protocol) *Protocol {
	if cl == nil {
		panic("sleep: nil cluster protocol")
	}
	if !cfg.Valid() {
		panic("sleep: invalid config")
	}
	return &Protocol{cfg: cfg, cluster: cl}
}

// Start implements node.Protocol.
func (p *Protocol) Start(h *node.Host) {
	p.host = h
	p.scheduleEpoch(p.cluster.Timing().FirstEpochAt(h.Now()))
}

func (p *Protocol) scheduleEpoch(e wire.Epoch) {
	at := p.cluster.Timing().EpochStart(e)
	p.host.After(at-p.host.Now(), func() { p.runEpoch(e) })
}

// runEpoch decides, near the end of epoch e, whether to nap through the
// following epochs of this host's duty-cycle slot.
func (p *Protocol) runEpoch(e wire.Epoch) {
	p.scheduleEpoch(e + 1)
	// Decide after the FDS execution settles, before the epoch ends.
	t := p.cluster.Timing()
	p.host.After(t.R3End()+4*t.Thop, func() { p.maybeNap(e) })
}

// maybeNap checks the duty-cycle phase and structural duties.
func (p *Protocol) maybeNap(e wire.Epoch) {
	// Phase-shift by NID so a cluster's members nap in staggered slots.
	phase := wire.Epoch(uint64(p.host.ID())) % p.cfg.Period
	if (e+phase)%p.cfg.Period != p.cfg.Period-1 {
		return // not our slot
	}
	cl := p.cluster
	if !cl.Marked() || cl.IsCH() || cl.IsGW() || cl.IsDeputy() || cl.HasBorderClusters() {
		return // structural duty (CH, gateway, deputy, border relay): stay awake
	}

	t := p.cluster.Timing()
	firstNap := e + 1
	wakeEpoch := firstNap + p.cfg.NapEpochs
	if p.cfg.Announce {
		// The notice is sent twice — at decision time and again just
		// before the radio goes off — because a single lost notice would
		// silently void the excusal and cost a false detection. Two
		// independent transmissions drop that risk from p to p².
		notice := &wire.SleepNotice{NID: p.host.ID(), Epoch: e, Until: wakeEpoch}
		p.host.Send(notice)
		resendAt := t.EpochStart(firstNap) - t.Thop
		p.host.After(resendAt-p.host.Now(), func() { p.host.Send(notice) })
	}
	p.naps++
	p.host.Trace(trace.TypeViewUpdate, fmt.Sprintf("nap until epoch %d", wakeEpoch))
	// The radio goes off exactly at the nap's first epoch boundary — the
	// sleeper still participates in the remainder of the current epoch
	// (including the notice resend above).
	napStart := t.EpochStart(firstNap)
	wake := t.EpochStart(wakeEpoch)
	p.host.After(napStart-p.host.Now(), func() { p.host.SleepRadio(wake) })
}

// Handle implements node.Protocol (the policy only transmits).
func (p *Protocol) Handle(h *node.Host, m wire.Message, from wire.NodeID) {}

// Naps returns how many naps this host has taken.
func (p *Protocol) Naps() int { return p.naps }
