// Package sim is a walltime fixture standing in for the deterministic
// kernel package: every wall-clock read and global-rand draw must fire.
package sim

import (
	"math/rand"
	"time"
)

// Time is simulated nanoseconds, as in the real kernel.
type Time int64

func badClock() Time {
	t := time.Now()                // want `time\.Now in deterministic package`
	time.Sleep(time.Millisecond)   // want `time\.Sleep in deterministic package`
	d := time.Since(t)             // want `time\.Since in deterministic package`
	<-time.After(time.Second)      // want `time\.After in deterministic package`
	tm := time.NewTimer(time.Hour) // want `time\.NewTimer in deterministic package`
	_ = tm
	return Time(d)
}

func badRand() float64 {
	n := rand.Intn(10)                 // want `global math/rand\.Intn in deterministic package`
	rand.Seed(42)                      // want `global math/rand\.Seed in deterministic package`
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand\.Shuffle in deterministic package`
	return rand.Float64()              // want `global math/rand\.Float64 in deterministic package`
}

// goodRand draws from an explicit, seeded source: the legal pattern.
func goodRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64() + float64(rng.Intn(3))
}

// goodTime only manipulates durations and zero Times as plain values.
func goodTime() time.Duration {
	var t0 time.Time
	_ = t0
	return 3 * time.Second
}
