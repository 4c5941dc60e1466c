// Package stats provides the small statistical toolkit the experiment
// harnesses need: streaming summaries, proportion estimates with confidence
// intervals, and binomial probabilities. Nothing here is protocol-specific.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and reports moments
// and extrema. The zero value is ready to use.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	everyValue []float64 // retained only when percentiles are requested
	keepValues bool
}

// NewSummary returns a summary; if keepValues is true, observations are
// retained so Percentile can be answered (at O(n) memory).
func NewSummary(keepValues bool) *Summary {
	return &Summary{keepValues: keepValues}
}

// Add records one observation using Welford's online algorithm.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if s.keepValues {
		s.everyValue = append(s.everyValue, x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 with no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 with no observations).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no observations).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Percentile returns the q-th percentile (q in [0,1]) by linear
// interpolation. It panics unless the summary was created with
// keepValues=true; it returns 0 with no observations.
func (s *Summary) Percentile(q float64) float64 {
	if !s.keepValues {
		panic("stats: Percentile requires NewSummary(true)")
	}
	if s.n == 0 {
		return 0
	}
	vals := append([]float64(nil), s.everyValue...)
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// String renders a one-line digest for logs and example output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Proportion estimates a Bernoulli success probability from counts and
// provides a Wilson score interval, which behaves sensibly when successes
// are zero or near the boundary — exactly the regime of rare false
// detections.
type Proportion struct {
	Successes int
	Trials    int
}

// AddOutcome records one Bernoulli trial.
func (p *Proportion) AddOutcome(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Estimate returns the point estimate successes/trials (0 when empty).
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at the given z (e.g. 1.96 for
// 95%). With zero trials it returns (0, 1): total ignorance.
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	phat := p.Estimate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}

// Contains reports whether the Wilson interval at z contains q.
func (p Proportion) Contains(q, z float64) bool {
	lo, hi := p.Wilson(z)
	return q >= lo && q <= hi
}

// String renders the estimate with its 95% interval.
func (p Proportion) String() string {
	lo, hi := p.Wilson(1.96)
	return fmt.Sprintf("%d/%d = %.4g [%.4g, %.4g]", p.Successes, p.Trials, p.Estimate(), lo, hi)
}

// BinomialLogPMF returns log P[X = k] for X ~ Binomial(n, p). Computed in
// log space so the analytic cross-checks can handle the paper's 1e-100-scale
// probabilities without underflow.
func BinomialLogPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	return math.Exp(BinomialLogPMF(n, k, p))
}
