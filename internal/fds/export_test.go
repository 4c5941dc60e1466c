package fds

import (
	"sync/atomic"
	"testing"
)

// EvidenceCount is what a test's evidence probe (see evidenceProbe) has seen:
// consultations of the detection evidence, and those among them made by a
// host that had folded no digests that epoch. Atomic, because the Monte-Carlo
// harness replicates trials over worker goroutines.
type EvidenceCount struct{ consulted, ungated atomic.Int64 }

// ProbeEvidence installs a counting evidence probe for the rest of the test.
func ProbeEvidence(t testing.TB) *EvidenceCount {
	c := &EvidenceCount{}
	evidenceProbe = func(judging bool) {
		c.consulted.Add(1)
		if !judging {
			c.ungated.Add(1)
		}
	}
	t.Cleanup(func() { evidenceProbe = nil })
	return c
}

// Check fails the test unless the evidence was consulted since the last
// Check, and only by hosts that had folded the digests it comes from.
func (c *EvidenceCount) Check(t testing.TB) {
	t.Helper()
	if n, u := c.consulted.Swap(0), c.ungated.Swap(0); n == 0 || u != 0 {
		t.Errorf("evidence consulted %d times, %d of them on a host that folded no digests", n, u)
	}
}

// armedForwards is ForwardSlots' armed count.
func (p *Protocol) armedForwards() int {
	_, armed := p.ForwardSlots()
	return armed
}
