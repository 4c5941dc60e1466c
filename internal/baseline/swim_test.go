package baseline

import (
	"testing"
	"time"

	"clusterfds/internal/geo"
	"clusterfds/internal/node"
	"clusterfds/internal/radio"
	"clusterfds/internal/sim"
)

// TestSWIMStaleProbeTimeoutIgnored pins that a probe-stage timeout judges
// the probe it was armed for. A lone host probes member 2, which never
// answers (it does not exist); before that probe's direct timeout fires, a
// second probe goes out. The first timeout must then do nothing — no
// indirect stage, no verdict — because its seq is stale; only the second
// probe's own timeout may declare 2 failed. A timeout that read the current
// probe's seq when it fired, instead of carrying its own, would declare 2
// failed a probe stage early.
func TestSWIMStaleProbeTimeoutIgnored(t *testing.T) {
	p := testParams()
	stage := p.Interval / swimProbeDivisor
	k := sim.New(1)
	h := node.New(k, radio.New(k, radio.Defaults(0)), 1, geo.Point{})
	s := newSWIM(p)
	h.Use(s)
	h.Boot()

	// The first tick finds no member and sends an unaddressed ping; then
	// step to the second tick, which probes 2.
	k.RunUntil(p.Interval)
	s.addMember(2)
	step := sim.Time(time.Millisecond)
	now := p.Interval
	for s.seq < 2 {
		now += step
		k.RunUntil(now)
	}
	first := s.seq

	// Half a stage on (the first timeout is still armed, at most one step
	// less than a stage away), probe again.
	now += stage / 2
	k.RunUntil(now)
	s.tick()
	if s.pending.seq != first+1 || s.pending.target != 2 {
		t.Fatalf("second probe: pending %+v, want seq %d to 2", s.pending, first+1)
	}

	// The first probe's timeout has fired; the second's has not.
	k.RunUntil(now + stage*3/4)
	if s.IsSuspected(2) {
		t.Fatalf("the timeout armed for probe %d escalated probe %d: 2 declared failed a stage early", first, first+1)
	}
	// The second probe's own timeout still counts.
	k.RunUntil(now + stage + step)
	if !s.IsSuspected(2) {
		t.Fatalf("probe %d timed out unanswered with no proxies, but 2 is not suspected", first+1)
	}
}
