package analysis

import (
	"math"
	"math/rand"

	"clusterfds/internal/geo"
	"clusterfds/internal/replicate"
)

// This file implements the DCH reachability study the paper describes but
// omits "due to space limitations" (Section 4.2, Figure 2(a)): after a DCH
// takes over from a failed CH, some members may lie outside the DCH's
// transmission range (region Av). The digest round rescues them: a member v
// in Av is still observable by the DCH if some node v' lies in Ag — the
// region covered by both the DCH and v — hears v's heartbeat, and delivers
// its digest to the DCH.
//
// The paper's qualitative finding: "unless the node population density is
// low and the DCH's distance from the original CH is big, with high
// probability a DCH will be able to hear from an out-of-range cluster
// member through the round of digest diffusion."

// DCHReach quantifies that study for a cluster of radius R with n members,
// DCH at distance d from the failed CH, and loss probability p.
type DCHReach struct {
	// R is the transmission range / cluster radius.
	R float64
	// N is the cluster population.
	N int
	// P is the per-receiver message loss probability.
	P float64
}

// OutOfRangeFraction returns the expected fraction of the cluster disk that
// the DCH at distance d cannot reach directly: area(Av)/area(Au).
func (c DCHReach) OutOfRangeFraction(d float64) float64 {
	if d < 0 {
		d = 0
	}
	overlap := geo.LensArea(c.R, c.R, d)
	return 1 - overlap/geo.DiskArea(c.R)
}

// Result is the outcome of a reachability evaluation at one DCH distance.
type Result struct {
	// D is the CH–DCH distance.
	D float64
	// OutOfRange is the probability a uniformly placed member lies outside
	// the DCH's range.
	OutOfRange float64
	// ReachGivenOut is the probability that an out-of-range member is
	// nevertheless observed by the DCH through some digest.
	ReachGivenOut float64
	// Unobserved is the overall probability a member is both out of range
	// and unobserved — the residual accuracy exposure after a takeover.
	Unobserved float64
}

// Evaluate estimates reachability by Monte Carlo with the given number of
// member-placement samples. For each sampled out-of-range member position v,
// the helper region Ag(v) (triple intersection of the cluster disk, the
// DCH's disk, and v's disk) is measured by nested sampling, and the
// probability that none of the other N−3 uniformly placed nodes rescues v is
//
//	(1 − (Ag/Au)·(1−p)²)^(N−3)
//
// — a node rescues v iff it falls in Ag (hears both v and the DCH... it
// must hear v's heartbeat, probability 1−p, and its digest must reach the
// DCH, probability 1−p).
func (c DCHReach) Evaluate(rng *rand.Rand, d float64, samples int) Result {
	if samples <= 0 {
		panic("analysis: non-positive sample count")
	}
	ch := geo.Point{X: 0, Y: 0}
	dch := geo.Point{X: d, Y: 0}
	au := geo.DiskArea(c.R)

	outOfRange := c.OutOfRangeFraction(d)
	if outOfRange <= 0 {
		return Result{D: d, OutOfRange: 0, ReachGivenOut: 1, Unobserved: 0}
	}

	const areaSamples = 2000
	reached, total := 0.0, 0
	for total < samples {
		v := geo.UniformInDisk(rng, ch, c.R)
		if v.WithinRange(dch, c.R) {
			continue // only out-of-range members are at issue
		}
		total++
		ag := c.tripleIntersection(rng, ch, dch, v, areaSamples)
		perNode := (ag / au) * (1 - c.P) * (1 - c.P)
		reached += 1 - math.Pow(1-perNode, float64(c.N-3))
	}
	reachGivenOut := reached / float64(total)
	return Result{
		D:             d,
		OutOfRange:    outOfRange,
		ReachGivenOut: reachGivenOut,
		Unobserved:    outOfRange * (1 - reachGivenOut),
	}
}

// tripleIntersection estimates the area inside all three disks of radius R
// centered at a, b, and v, by sampling within the lens of a and v (the
// smallest enclosing pair available cheaply).
func (c DCHReach) tripleIntersection(rng *rand.Rand, a, b, v geo.Point, samples int) float64 {
	hits := 0
	for i := 0; i < samples; i++ {
		p := geo.UniformInDisk(rng, a, c.R)
		if p.WithinRange(b, c.R) && p.WithinRange(v, c.R) {
			hits++
		}
	}
	return geo.DiskArea(c.R) * float64(hits) / float64(samples)
}

// SweepParallel evaluates the distances concurrently on the replication
// engine. Each distance gets a private random stream derived from (seed,
// index), so the result is a pure function of the arguments: identical for
// every worker count (0 = GOMAXPROCS) and across runs.
func (c DCHReach) SweepParallel(seed int64, ds []float64, samples, workers int) []Result {
	return replicate.Map(workers, ds, seed, func(_ int, d float64, rng *rand.Rand) Result {
		return c.Evaluate(rng, d, samples)
	})
}
