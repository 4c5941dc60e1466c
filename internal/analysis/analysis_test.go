package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Max(math.Abs(a), math.Abs(b))
	if d == 0 {
		return true
	}
	return math.Abs(a-b)/d <= tol
}

func TestNeighborhoodFractionValue(t *testing.T) {
	a := NeighborhoodFraction()
	want := 2 * (math.Pi/3 - math.Sqrt(3)/4) / math.Pi
	if !relClose(a, want, 1e-12) {
		t.Errorf("a = %v, want %v", a, want)
	}
	if a < 0.39 || a > 0.392 {
		t.Errorf("a = %v, want ~0.391", a)
	}
}

// TestClosedFormMatchesPaperSum is the central fidelity test: the compact
// closed form must equal the paper's literal double summation.
func TestClosedFormMatchesPaperSum(t *testing.T) {
	for _, n := range []int{3, 10, 50, 75, 100} {
		for _, p := range DefaultLossSweep() {
			closed := FalseDetection(n, p)
			sum := FalseDetectionPaperSum(n, p)
			if !relClose(closed, sum, 1e-9) {
				t.Errorf("N=%d p=%v: closed %v vs paper sum %v", n, p, closed, sum)
			}
		}
	}
}

func TestIncompletenessClosedFormMatchesSum(t *testing.T) {
	for _, n := range []int{3, 10, 50, 75, 100} {
		for _, p := range DefaultLossSweep() {
			if !relClose(Incompleteness(n, p), IncompletenessSum(n, p), 1e-9) {
				t.Errorf("N=%d p=%v mismatch", n, p)
			}
		}
	}
}

func TestClosedFormMatchesSumProperty(t *testing.T) {
	f := func(rawN uint8, rawP float64) bool {
		n := 3 + int(rawN)%120
		p := math.Abs(math.Mod(rawP, 1))
		return relClose(FalseDetection(n, p), FalseDetectionPaperSum(n, p), 1e-8) &&
			relClose(Incompleteness(n, p), IncompletenessSum(n, p), 1e-8)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPaperFigureMagnitudes pins the curves to the levels readable off the
// published figures (order-of-magnitude agreement is the acceptance bar;
// exact values follow from the formulas).
func TestPaperFigureMagnitudes(t *testing.T) {
	tests := []struct {
		name   string
		got    float64
		lo, hi float64
	}{
		// Figure 5: N=100 at p=0.05 is ~1e-21 (deep below 1e-15); N=50 at
		// p=0.5 is "still very reasonable", in the 1e-3 range.
		{"fig5 N=100 p=0.05", FalseDetection(100, 0.05), 1e-25, 1e-18},
		{"fig5 N=50 p=0.5", FalseDetection(50, 0.5), 1e-4, 1e-2},
		// Figure 6: "practically negligible" below p=0.25 for N=100, and
		// "below 1e-6 even when N drops to 50" at p=0.5.
		{"fig6 N=100 p=0.05", FalseDetectionOnCH(100, 0.05), 1e-110, 1e-90},
		{"fig6 N=50 p=0.5", FalseDetectionOnCH(50, 0.5), 1e-9, 1e-6},
		// Figure 7: robust completeness; N=100 at p=0.05 many orders below
		// any practical concern, N=50 at p=0.5 around a few percent.
		{"fig7 N=100 p=0.05", Incompleteness(100, 0.05), 1e-22, 1e-16},
		{"fig7 N=50 p=0.5", Incompleteness(50, 0.5), 1e-3, 1e-1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got < tt.lo || tt.got > tt.hi {
				t.Errorf("value %v outside paper-consistent band [%v, %v]", tt.got, tt.lo, tt.hi)
			}
		})
	}
}

// TestCurveOrdering checks the qualitative structure of the figures: denser
// clusters are uniformly better, and all measures worsen with loss.
func TestCurveOrdering(t *testing.T) {
	measures := []Measure{MeasureFalseDetection, MeasureFalseDetectionOnCH, MeasureIncompleteness}
	for _, m := range measures {
		// N=100 strictly below N=75 strictly below N=50 at every p.
		for _, p := range DefaultLossSweep() {
			v50, v75, v100 := m.Eval(50, p), m.Eval(75, p), m.Eval(100, p)
			if !(v100 < v75 && v75 < v50) {
				t.Errorf("%v at p=%v: ordering broken (%v, %v, %v)", m, p, v50, v75, v100)
			}
		}
		// Monotone nondecreasing in p for each N.
		for _, n := range PaperPopulations() {
			prev := -1.0
			for _, p := range DefaultLossSweep() {
				v := m.Eval(n, p)
				if v < prev {
					t.Errorf("%v N=%d: value decreased at p=%v", m, n, p)
				}
				prev = v
			}
		}
	}
}

// TestCHBetterProtectedThanMember reproduces the paper's Section 5.1
// observation: the DCH is far less likely to falsely detect the CH than the
// CH is to falsely detect an edge member, because the CH's broadcast reaches
// everyone while an edge member reaches only ~39% of the cluster.
func TestCHBetterProtectedThanMember(t *testing.T) {
	for _, n := range PaperPopulations() {
		for _, p := range DefaultLossSweep() {
			if FalseDetectionOnCH(n, p) >= FalseDetection(n, p) {
				t.Errorf("N=%d p=%v: CH not better protected", n, p)
			}
		}
	}
}

func TestBoundaryValues(t *testing.T) {
	// p = 0: perfect channel, no false detections, no incompleteness.
	for _, n := range PaperPopulations() {
		if FalseDetection(n, 0) != 0 || FalseDetectionOnCH(n, 0) != 0 || Incompleteness(n, 0) != 0 {
			t.Errorf("N=%d: nonzero measure at p=0", n)
		}
	}
	// p = 1: everything lost; false detection certain (p²·1), update never
	// arrives (incompleteness = 1·1).
	if got := FalseDetection(50, 1); got != 1 {
		t.Errorf("FalseDetection(50,1) = %v, want 1", got)
	}
	if got := Incompleteness(50, 1); got != 1 {
		t.Errorf("Incompleteness(50,1) = %v, want 1", got)
	}
	if got := FalseDetectionOnCH(50, 1); got != 1 {
		t.Errorf("FalseDetectionOnCH(50,1) = %v, want 1", got)
	}
}

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"n too small": func() { FalseDetection(2, 0.1) },
		"p negative":  func() { FalseDetection(50, -0.1) },
		"p above 1":   func() { Incompleteness(50, 1.1) },
		"bad measure": func() { Measure(99).Eval(50, 0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSweepHelpers(t *testing.T) {
	ps := DefaultLossSweep()
	if len(ps) != 10 || ps[0] != 0.05 || ps[9] != 0.5 {
		t.Errorf("DefaultLossSweep = %v", ps)
	}
	series := Series(MeasureFalseDetection, 75, ps)
	if len(series) != 10 {
		t.Fatalf("series length %d", len(series))
	}
	for i, pt := range series {
		if pt.P != ps[i] {
			t.Errorf("series[%d].P = %v", i, pt.P)
		}
		if pt.Value != FalseDetection(75, ps[i]) {
			t.Errorf("series[%d] value mismatch", i)
		}
	}
	if MeasureFalseDetection.String() == MeasureIncompleteness.String() {
		t.Error("measure names collide")
	}
}

func TestDCHReachOutOfRangeFraction(t *testing.T) {
	c := DCHReach{R: 100, N: 75, P: 0.1}
	if got := c.OutOfRangeFraction(0); got != 0 {
		t.Errorf("d=0: fraction %v, want 0 (DCH at CH covers everything)", got)
	}
	// d = R: overlap is the lens 2(π/3−√3/4)R², so out-of-range = 1−0.391·π/π...
	want := 1 - NeighborhoodFraction()
	if got := c.OutOfRangeFraction(100); !relClose(got, want, 1e-9) {
		t.Errorf("d=R: fraction %v, want %v", got, want)
	}
	// Monotone in d.
	prev := -1.0
	for d := 0.0; d <= 100; d += 10 {
		f := c.OutOfRangeFraction(d)
		if f < prev {
			t.Errorf("fraction decreased at d=%v", d)
		}
		prev = f
	}
}

func TestDCHReachEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := DCHReach{R: 100, N: 75, P: 0.1}

	// DCH at the CH's position: nothing is out of range.
	r0 := c.Evaluate(rng, 0, 100)
	if r0.Unobserved != 0 || r0.ReachGivenOut != 1 {
		t.Errorf("d=0: %+v", r0)
	}

	// Moderate displacement, dense cluster: the paper's claim — reach
	// probability is high.
	r := c.Evaluate(rng, 40, 300)
	if r.ReachGivenOut < 0.95 {
		t.Errorf("d=40 N=75: ReachGivenOut = %v, want > 0.95", r.ReachGivenOut)
	}
	if r.Unobserved > 0.01 {
		t.Errorf("d=40 N=75: Unobserved = %v, want < 0.01", r.Unobserved)
	}

	// Sparse cluster, large displacement: reach degrades — the caveat the
	// paper states ("unless the population density is low and the distance
	// is big").
	sparse := DCHReach{R: 100, N: 10, P: 0.3}
	rs := sparse.Evaluate(rng, 90, 300)
	if rs.ReachGivenOut >= r.ReachGivenOut {
		t.Errorf("sparse/far (%v) should be worse than dense/near (%v)",
			rs.ReachGivenOut, r.ReachGivenOut)
	}
}

func TestDCHReachSweep(t *testing.T) {
	c := DCHReach{R: 100, N: 50, P: 0.1}
	ds := []float64{0, 25, 50, 75, 100}
	rs := c.SweepParallel(5, ds, 120, 1)
	if len(rs) != len(ds) {
		t.Fatalf("sweep length %d", len(rs))
	}
	// Unobserved probability grows with distance (within MC noise, checked
	// loosely end-to-end).
	if rs[len(rs)-1].Unobserved < rs[0].Unobserved {
		t.Errorf("unobserved should grow with d: %v", rs)
	}
}

func TestDCHReachValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on zero samples")
		}
	}()
	c := DCHReach{R: 100, N: 50, P: 0.1}
	c.Evaluate(rand.New(rand.NewSource(1)), 50, 0)
}
