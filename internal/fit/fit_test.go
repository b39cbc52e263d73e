package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func gen(f func(n float64) float64, noise float64, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []Point
	for n := 4.0; n <= 4096; n *= 1.3 {
		y := f(n) * (1 + noise*(rng.Float64()-0.5))
		pts = append(pts, Point{N: n, Cost: y})
	}
	return pts
}

func TestBestRecoversKnownModels(t *testing.T) {
	cases := []struct {
		name string
		f    func(n float64) float64
		want string
	}{
		{"constant", func(n float64) float64 { return 42 }, "O(1)"},
		{"log", func(n float64) float64 { return 10 + 7*math.Log2(n) }, "O(log n)"},
		{"linear", func(n float64) float64 { return 5 + 3*n }, "O(n)"},
		{"nlogn", func(n float64) float64 { return 2 * n * math.Log2(n) }, "O(n log n)"},
		{"quadratic", func(n float64) float64 { return 1 + 0.5*n*n }, "O(n^2)"},
		{"cubic", func(n float64) float64 { return n * n * n / 7 }, "O(n^3)"},
	}
	for _, c := range cases {
		for _, noise := range []float64{0, 0.05} {
			best, err := Best(gen(c.f, noise, 1))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if best.Model.Name != c.want {
				t.Errorf("%s (noise %.2f): best = %s, want %s", c.name, noise, best, c.want)
			}
		}
	}
}

func TestBestPrefersSlowerGrowthOnTies(t *testing.T) {
	// A perfectly linear curve is also fit perfectly by n log n with tiny
	// coefficients over a narrow range; the slower model must win ties.
	pts := []Point{{1, 10}, {2, 10}, {4, 10}, {8, 10}}
	best, err := Best(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Model.Name != "O(1)" {
		t.Errorf("flat data fit as %s, want O(1)", best)
	}
}

func TestFitPowerLawExactExponents(t *testing.T) {
	for _, k := range []float64{0.5, 1, 1.5, 2, 3} {
		pts := gen(func(n float64) float64 { return 3 * math.Pow(n, k) }, 0, 1)
		pl, err := FitPowerLaw(pts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pl.Exponent-k) > 0.01 {
			t.Errorf("exponent for n^%.1f: got %s", k, pl)
		}
		if math.Abs(pl.Coeff-3) > 0.1 {
			t.Errorf("coefficient for 3*n^%.1f: got %s", k, pl)
		}
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	pts := []Point{{0, 5}, {1, 0}, {2, 8}, {4, 16}, {8, 32}}
	pl, err := FitPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Points != 3 {
		t.Errorf("used %d points, want 3", pl.Points)
	}
	if math.Abs(pl.Exponent-1) > 0.01 {
		t.Errorf("exponent = %s, want ~1", pl)
	}
}

func TestErrorsOnTooFewPoints(t *testing.T) {
	if _, err := Best([]Point{{1, 1}}); err == nil {
		t.Error("Best accepted a single point")
	}
	if _, err := FitPowerLaw([]Point{{1, 1}}); err == nil {
		t.Error("FitPowerLaw accepted a single point")
	}
	if _, err := FitPowerLaw([]Point{{2, 1}, {2, 3}, {2, 9}}); err == nil {
		t.Error("FitPowerLaw accepted degenerate equal-n points")
	}
}

func TestNegativeSlopeClamped(t *testing.T) {
	// Decreasing cost: no growth model applies; every fit degrades to the
	// mean rather than reporting a negative slope.
	pts := []Point{{1, 100}, {10, 50}, {100, 25}, {1000, 12}}
	for _, f := range FitAll(pts) {
		if f.B < 0 {
			t.Errorf("%s has negative slope", f)
		}
	}
}

// TestQuickLinearRecovery property: for random positive slopes and
// intercepts, the linear model recovers them to good precision.
func TestQuickLinearRecovery(t *testing.T) {
	f := func(a8, b8 uint8) bool {
		a, b := float64(a8), float64(b8)+1
		var pts []Point
		for n := 1.0; n <= 256; n *= 2 {
			pts = append(pts, Point{N: n, Cost: a + b*n})
		}
		fits := FitAll(pts)
		lin := fits[2] // O(n)
		return math.Abs(lin.A-a) < 1e-6*(1+a) && math.Abs(lin.B-b) < 1e-6*b && lin.R2 > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEvalMatchesModel(t *testing.T) {
	pts := gen(func(n float64) float64 { return 2 + 3*n }, 0, 1)
	best, err := Best(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := best.Eval(100); math.Abs(got-302) > 1 {
		t.Errorf("Eval(100) = %f, want ~302", got)
	}
}

func TestFitPowerLawCI(t *testing.T) {
	// Clean quadratic data: tight interval around 2.
	clean := gen(func(n float64) float64 { return n * n }, 0, 1)
	ci, err := FitPowerLawCI(clean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ci.Exponent-2) > 0.01 {
		t.Errorf("exponent = %.3f, want ~2", ci.Exponent)
	}
	if ci.ExponentStderr > 0.01 {
		t.Errorf("stderr = %.4f on clean data, want ~0", ci.ExponentStderr)
	}

	// One wild outlier: the jackknife must widen the interval sharply.
	outlier := append(append([]Point(nil), clean...), Point{N: 5000, Cost: 1})
	ciO, err := FitPowerLawCI(outlier)
	if err != nil {
		t.Fatal(err)
	}
	if ciO.ExponentStderr < 10*ci.ExponentStderr {
		t.Errorf("outlier stderr %.4f not much wider than clean %.4f", ciO.ExponentStderr, ci.ExponentStderr)
	}

	if _, err := FitPowerLawCI([]Point{{1, 1}, {2, 2}}); err == nil {
		t.Error("accepted 2 points")
	}
}
