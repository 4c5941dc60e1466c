// Package sim is the negative control for the tree driver: one planted
// finding for each of the three determinism analyzers, in a directory that
// has all three kinds of file `go vet` folds into units — package,
// in-package test, external test. Package fds holds the lifetime analyzers'.
package sim

import (
	"math/rand"
	"time"
)

// Kernel is a stand-in for the simulator clock.
type Kernel struct{ now int64 }

// Now returns simulated time.
func (k *Kernel) Now() int64 { return k.now }

// stamp reads the wall clock inside a deterministic package: walltime.
func stamp() int64 { return time.Now().UnixNano() }

// fireAll runs handlers in map order: detmap.
func fireAll(timers map[int64]func()) {
	for _, fn := range timers {
		fn()
	}
}

// lost makes host i's draw count depend on host m's state: rngdraw.
func lost(rng []*rand.Rand, crashed []bool, i, m int) bool {
	if crashed[m] {
		return true
	}
	return rng[i].Float64() < 0.5
}
