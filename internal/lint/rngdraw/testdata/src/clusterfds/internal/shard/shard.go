// Package shard is the rngdraw fixture: randomness comes from the sending
// host's own stream, in pinned order, guarded only by the sender's state.
package shard

import (
	"math/rand"

	"clusterfds/internal/sim"
)

type engine struct {
	rng     []sim.Stream
	rands   []*rand.Rand
	crashed []bool
	relay   []bool
	posX    []float64
}

// --- firing -----------------------------------------------------------------

// badReceiverExit: an early-exit guard on another host's state makes host
// i's draw count depend on the receiver.
func (e *engine) badReceiverExit(i, m int) int64 {
	if e.crashed[m] {
		return 0
	}
	return e.rng[i].Int63n(10) // want `draw from e\.rng\[i\] conditioned on receiver state \(e\.crashed\[m\]\)`
}

// badReceiverIf: the enclosing-if form of the same bug.
func (e *engine) badReceiverIf(i, m int) {
	if !e.relay[m] {
		e.rng[i].Uint64() // want `draw from e\.rng\[i\] conditioned on receiver state \(e\.relay\[m\]\)`
	}
}

// badLocalRand: the subject follows a local stream binding.
func (e *engine) badLocalRand(idx, m int) float64 {
	rng := e.rands[idx]
	if e.crashed[m] {
		return 0
	}
	return rng.Float64() // want `draw from rng conditioned on receiver state \(e\.crashed\[m\]\)`
}

// --- non-firing -------------------------------------------------------------

// goodOwnGuard: the sender may consult its own state before drawing.
func (e *engine) goodOwnGuard(i int) uint64 {
	if e.crashed[i] {
		return 0
	}
	return e.rng[i].Uint64()
}

// goodOwnGuardMixed: several own-state guards compose (the learn pattern:
// `if !news || e.relayPend[i] { return }` then draw).
func (e *engine) goodOwnGuardMixed(i int, news bool) int64 {
	if !news || e.relay[i] {
		return 0
	}
	return e.rng[i].Int63n(100)
}

// goodGeometry: geometry compares and identity tests are functions of the
// deterministic field, not receiver liveness.
func (e *engine) goodGeometry(i, m int) uint64 {
	if m == i {
		return 0
	}
	if e.posX[m]-e.posX[i] > 5 {
		return 0
	}
	return e.rng[i].Uint64()
}

// goodOwnCond: the draw inside its own short-circuit condition is the
// sanctioned loss-draw shape.
func (e *engine) goodOwnCond(i int, p float64) bool {
	if p > 0 && e.rng[i].Float64() < p {
		return true
	}
	return false
}

// goodPinnedLoop: slice iteration is pinned; per-neighbor draws are fine.
func (e *engine) goodPinnedLoop(i int, nbs []int) {
	for range nbs {
		e.rng[i].Uint64()
	}
}

// goodSubjectless: a bare stream parameter has no per-host subject to
// compare the guard with.
func (e *engine) goodSubjectless(r *rand.Rand, m int) float64 {
	if e.crashed[m] {
		return 0
	}
	return r.Float64()
}
