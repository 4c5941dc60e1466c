// Package sim is the negative control for the tree driver: one planted
// walltime finding, in a directory that has all three kinds of file
// `go vet` folds into units — package, in-package test, external test.
package sim

import "time"

// Kernel is a stand-in for the simulator clock.
type Kernel struct{ now int64 }

// Now returns simulated time.
func (k *Kernel) Now() int64 { return k.now }

// stamp reads the wall clock inside a deterministic package: the finding.
func stamp() int64 { return time.Now().UnixNano() }
