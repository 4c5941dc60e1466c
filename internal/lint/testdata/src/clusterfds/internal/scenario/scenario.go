// Package scenario imports sim, so sim's external test below may import it
// only if the driver checks it against sim's test variant, as the go
// command does.
package scenario

import "clusterfds/internal/sim"

// Kernel returns a fresh simulator clock.
func Kernel() *sim.Kernel { return &sim.Kernel{} }
