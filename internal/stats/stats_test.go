package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	s := NewSummary(false)
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("zero summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if !close(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic set is 4; sample variance is 32/7.
	if !close(s.Variance(), 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummarySingleValue(t *testing.T) {
	s := NewSummary(false)
	s.Add(-3.5)
	if s.Mean() != -3.5 || s.Min() != -3.5 || s.Max() != -3.5 {
		t.Error("single-value summary wrong")
	}
	if s.Variance() != 0 {
		t.Errorf("Variance = %v, want 0", s.Variance())
	}
}

func TestSummaryMatchesNaiveComputation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		s := NewSummary(false)
		var sum float64
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		tol := 1e-6 * math.Max(1, math.Abs(wantVar))
		return close(s.Mean(), mean, 1e-6*math.Max(1, math.Abs(mean))) && close(s.Variance(), wantVar, tol)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	s := NewSummary(true)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.q); !close(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestPercentileWithoutValuesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	s := NewSummary(false)
	s.Add(1)
	s.Percentile(0.5)
}

func TestPercentileEmpty(t *testing.T) {
	s := NewSummary(true)
	if got := s.Percentile(0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if lo, hi := p.Wilson(1.96); lo != 0 || hi != 1 {
		t.Errorf("empty Wilson = [%v,%v], want [0,1]", lo, hi)
	}
	for i := 0; i < 100; i++ {
		p.AddOutcome(i < 30)
	}
	if !close(p.Estimate(), 0.3, 1e-12) {
		t.Errorf("Estimate = %v, want 0.3", p.Estimate())
	}
	lo, hi := p.Wilson(1.96)
	if lo >= 0.3 || hi <= 0.3 {
		t.Errorf("interval [%v,%v] should contain the point estimate", lo, hi)
	}
	// Known Wilson interval for 30/100 at 95%: approximately [0.219, 0.396].
	if !close(lo, 0.2189, 0.005) || !close(hi, 0.3961, 0.005) {
		t.Errorf("interval [%v,%v], want ~[0.219, 0.396]", lo, hi)
	}
	if !p.Contains(0.3, 1.96) || p.Contains(0.9, 1.96) {
		t.Error("Contains misbehaves")
	}
}

func TestProportionZeroSuccesses(t *testing.T) {
	p := Proportion{Successes: 0, Trials: 50}
	lo, hi := p.Wilson(1.96)
	if lo != 0 {
		t.Errorf("lo = %v, want 0", lo)
	}
	if hi <= 0 || hi > 0.1 {
		t.Errorf("hi = %v, want small positive", hi)
	}
}

func TestProportionCoverageProperty(t *testing.T) {
	// With many trials at a known p, the 95% Wilson interval should cover
	// the truth in the vast majority of replications.
	rng := rand.New(rand.NewSource(7))
	const reps, trials = 300, 400
	truth := 0.12
	covered := 0
	for r := 0; r < reps; r++ {
		var p Proportion
		for i := 0; i < trials; i++ {
			p.AddOutcome(rng.Float64() < truth)
		}
		if p.Contains(truth, 1.96) {
			covered++
		}
	}
	if frac := float64(covered) / reps; frac < 0.90 {
		t.Errorf("coverage %.3f, want >= 0.90", frac)
	}
}

func TestBinomialPMF(t *testing.T) {
	tests := []struct {
		n, k int
		p    float64
		want float64
	}{
		{10, 0, 0.5, math.Pow(0.5, 10)},
		{10, 10, 0.5, math.Pow(0.5, 10)},
		{10, 5, 0.5, 252 * math.Pow(0.5, 10)},
		{5, 2, 0.3, 10 * 0.09 * 0.343},
		{3, 0, 0, 1},
		{3, 1, 0, 0},
		{3, 3, 1, 1},
		{3, 2, 1, 0},
	}
	for _, tt := range tests {
		if got := BinomialPMF(tt.n, tt.k, tt.p); !close(got, tt.want, 1e-12) {
			t.Errorf("BinomialPMF(%d,%d,%v) = %v, want %v", tt.n, tt.k, tt.p, got, tt.want)
		}
	}
	if got := BinomialPMF(5, -1, 0.5); got != 0 {
		t.Errorf("k<0 should give 0, got %v", got)
	}
	if got := BinomialPMF(5, 6, 0.5); got != 0 {
		t.Errorf("k>n should give 0, got %v", got)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		for _, p := range []float64{0.05, 0.391, 0.5, 0.99} {
			var sum float64
			for k := 0; k <= n; k++ {
				sum += BinomialPMF(n, k, p)
			}
			if !close(sum, 1, 1e-9) {
				t.Errorf("sum over k of PMF(n=%d,p=%v) = %v, want 1", n, p, sum)
			}
		}
	}
}
