package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/denom <= tol
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEqual(got, tt.want*tt.want, 1e-9) {
				t.Errorf("Dist2(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		s := func(x float64) float64 { return math.Mod(x, 1e6) }
		p, q := Point{s(ax), s(ay)}, Point{s(bx), s(by)}
		return almostEqual(p.Dist(q), q.Dist(p), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Scale inputs into a sane range to avoid overflow-driven noise.
		s := func(x float64) float64 { return math.Mod(x, 1e6) }
		a, b, c := Point{s(ax), s(ay)}, Point{s(bx), s(by)}, Point{s(cx), s(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithinRange(t *testing.T) {
	p := Point{0, 0}
	tests := []struct {
		name string
		q    Point
		r    float64
		want bool
	}{
		{"inside", Point{50, 0}, 100, true},
		{"exactly on boundary", Point{100, 0}, 100, true},
		{"outside", Point{100.001, 0}, 100, false},
		{"diagonal inside", Point{70, 70}, 100, true},
		{"diagonal outside", Point{71, 71}, 100, false},
		{"zero range same point", Point{0, 0}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.WithinRange(tt.q, tt.r); got != tt.want {
				t.Errorf("WithinRange(%v, %v) = %v, want %v", tt.q, tt.r, got, tt.want)
			}
		})
	}
}

func TestRect(t *testing.T) {
	r := NewRect(300, 200)
	if r.Width() != 300 || r.Height() != 200 {
		t.Fatalf("Width/Height = %v/%v, want 300/200", r.Width(), r.Height())
	}
	if r.Area() != 60000 {
		t.Fatalf("Area = %v, want 60000", r.Area())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{300, 200}) {
		t.Error("corners should be contained")
	}
	if r.Contains(Point{-1, 0}) || r.Contains(Point{0, 201}) {
		t.Error("points outside should not be contained")
	}
}

func TestUniformInRectStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Rect{MinX: -10, MinY: 5, MaxX: 20, MaxY: 45}
	for i := 0; i < 1000; i++ {
		if p := UniformInRect(rng, r); !r.Contains(p) {
			t.Fatalf("point %v outside rect %v", p, r)
		}
	}
}

func TestUniformInDiskStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := Point{10, -3}
	for i := 0; i < 1000; i++ {
		if p := UniformInDisk(rng, c, 7); !p.WithinRange(c, 7+1e-9) {
			t.Fatalf("point %v outside disk", p)
		}
	}
}

// TestUniformInDiskIsAreaUniform checks that the fraction of samples landing
// within half the radius is ~1/4 (area-uniform), not ~1/2 (radius-uniform).
func TestUniformInDiskIsAreaUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Point{0, 0}
	const n = 200000
	inner := 0
	for i := 0; i < n; i++ {
		if UniformInDisk(rng, c, 1).WithinRange(c, 0.5) {
			inner++
		}
	}
	frac := float64(inner) / n
	if !almostEqual(frac, 0.25, 0.01) {
		t.Errorf("fraction within r/2 = %v, want ~0.25", frac)
	}
}

func TestPlaceUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	field := NewRect(1000, 1000)
	pts := PlaceUniformRect(rng, field, 250)
	if len(pts) != 250 {
		t.Fatalf("got %d points, want 250", len(pts))
	}
	for _, p := range pts {
		if !field.Contains(p) {
			t.Fatalf("point %v outside field", p)
		}
	}
}

func TestOnCircle(t *testing.T) {
	c := Point{5, 5}
	for _, angle := range []float64{0, math.Pi / 3, math.Pi, 4.2} {
		p := OnCircle(c, 100, angle)
		if !almostEqual(p.Dist(c), 100, 1e-9) {
			t.Errorf("OnCircle(angle=%v) at distance %v, want 100", angle, p.Dist(c))
		}
	}
}

func TestLensAreaSpecialCases(t *testing.T) {
	tests := []struct {
		name      string
		r1, r2, d float64
		want      float64
		approx    bool
		approxTol float64
	}{
		{name: "disjoint", r1: 1, r2: 1, d: 3, want: 0},
		{name: "touching externally", r1: 1, r2: 1, d: 2, want: 0},
		{name: "concentric equal", r1: 2, r2: 2, d: 0, want: DiskArea(2)},
		{name: "contained", r1: 5, r2: 1, d: 1, want: DiskArea(1)},
		{name: "contained reversed", r1: 1, r2: 5, d: 1, want: DiskArea(1)},
		{name: "negative distance", r1: 1, r2: 1, d: -1, want: 0},
		{name: "unit disks at distance 1", r1: 1, r2: 1, d: 1,
			want: 2 * (math.Pi/3 - math.Sqrt(3)/4), approx: true, approxTol: 1e-12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := LensArea(tt.r1, tt.r2, tt.d)
			tol := 1e-12
			if tt.approx {
				tol = tt.approxTol
			}
			if !almostEqual(got, tt.want, tol) {
				t.Errorf("LensArea(%v,%v,%v) = %v, want %v", tt.r1, tt.r2, tt.d, got, tt.want)
			}
		})
	}
}

func TestLensAreaSymmetricInRadii(t *testing.T) {
	f := func(r1, r2, d float64) bool {
		r1, r2, d = math.Abs(math.Mod(r1, 100)), math.Abs(math.Mod(r2, 100)), math.Abs(math.Mod(d, 300))
		return relClose(LensArea(r1, r2, d), LensArea(r2, r1, d), 1e-9) ||
			almostEqual(LensArea(r1, r2, d), LensArea(r2, r1, d), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLensAreaMonotoneInDistance(t *testing.T) {
	prev := math.Inf(1)
	for d := 0.0; d <= 2.05; d += 0.05 {
		a := LensArea(1, 1, d)
		if a > prev+1e-12 {
			t.Fatalf("LensArea increased at d=%v: %v > %v", d, a, prev)
		}
		prev = a
	}
}

// TestNeighborhoodAreaAgreement is the keystone geometry test: the paper's
// integral, the lens closed form, and Monte Carlo sampling must all agree.
func TestNeighborhoodAreaAgreement(t *testing.T) {
	const r = 100.0
	integral := NeighborhoodAreaIntegral(r)
	closed := NeighborhoodArea(r)
	if !relClose(integral, closed, 1e-8) {
		t.Errorf("integral %v vs closed form %v", integral, closed)
	}
	lens := LensArea(r, r, r)
	if !relClose(closed, lens, 1e-9) {
		t.Errorf("closed form %v vs LensArea %v", closed, lens)
	}
	rng := rand.New(rand.NewSource(5))
	center := Point{0, 0}
	onEdge := OnCircle(center, r, 1.234)
	mc := IntersectionAreaMonteCarlo(rng, center, r, onEdge, r, 400000)
	if !relClose(closed, mc, 0.02) {
		t.Errorf("closed form %v vs Monte Carlo %v", closed, mc)
	}
}

func TestNeighborhoodFraction(t *testing.T) {
	a := NeighborhoodFraction()
	// The paper-critical constant: ~0.3910.
	if !almostEqual(a, 0.39100, 5e-4) {
		t.Errorf("NeighborhoodFraction = %v, want ~0.391", a)
	}
	// Scale invariance.
	for _, r := range []float64{1, 10, 100, 12345} {
		if got := NeighborhoodArea(r) / DiskArea(r); !relClose(got, a, 1e-12) {
			t.Errorf("fraction at r=%v is %v, want %v", r, got, a)
		}
	}
}

func TestIntersectionAreaMonteCarloDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if got := IntersectionAreaMonteCarlo(rng, Point{}, 1, Point{10, 0}, 1, 0); got != 0 {
		t.Errorf("zero samples should give 0, got %v", got)
	}
	if got := IntersectionAreaMonteCarlo(rng, Point{}, 1, Point{10, 0}, 1, 1000); got != 0 {
		t.Errorf("disjoint disks should give 0, got %v", got)
	}
}

func TestAdaptiveSimpsonKnownIntegrals(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 2 }, 0, 3, 6},
		{"linear", func(x float64) float64 { return x }, 0, 4, 8},
		{"quadratic", func(x float64) float64 { return x * x }, 0, 1, 1.0 / 3},
		{"sine over period", math.Sin, 0, 2 * math.Pi, 0},
		{"quarter circle", func(x float64) float64 { return math.Sqrt(math.Max(0, 1-x*x)) }, 0, 1, math.Pi / 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := adaptiveSimpson(tt.f, tt.a, tt.b, 1e-10, 30)
			if !almostEqual(got, tt.want, 1e-7) {
				t.Errorf("integral = %v, want %v", got, tt.want)
			}
		})
	}
}
