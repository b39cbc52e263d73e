// Package fit implements the curve-fitting step of input-sensitive profile
// analysis: given the points of a cost plot (input size n, cost), it fits
// the standard complexity model basis — constant, logarithmic, linear,
// linearithmic, n^1.5, quadratic, cubic — by least squares and selects the
// best-explaining model, plus a free-exponent power-law fit by log-log
// regression. The paper uses standard curve fitting to expose asymptotic
// trends (e.g. Fig. 6, where the trms plot of buf_flush_buffered_writes
// reveals a superlinear bottleneck the rms plot hides).
package fit

import (
	"fmt"
	"math"
)

// Point is one cost-plot point: a routine's cost at input size N.
type Point struct {
	N    float64
	Cost float64
}

// Model is one complexity-class basis function y = A + B*g(n).
type Model struct {
	Name string
	g    func(n float64) float64
}

// The model basis, ordered by growth rate.
var Models = []Model{
	{"O(1)", func(n float64) float64 { return 0 }},
	{"O(log n)", func(n float64) float64 { return math.Log2(math.Max(n, 1)) }},
	{"O(n)", func(n float64) float64 { return n }},
	{"O(n log n)", func(n float64) float64 { return n * math.Log2(math.Max(n, 2)) }},
	{"O(n^1.5)", func(n float64) float64 { return n * math.Sqrt(n) }},
	{"O(n^2)", func(n float64) float64 { return n * n }},
	{"O(n^3)", func(n float64) float64 { return n * n * n }},
}

// Fit is a fitted model with its least-squares coefficients and quality.
type Fit struct {
	Model Model
	A, B  float64
	// R2 is the coefficient of determination of this fit.
	R2 float64
	// RMSE is the root-mean-square error, used to rank models of equal R2.
	RMSE float64
}

// Eval returns the fitted cost prediction at input size n.
func (f Fit) Eval(n float64) float64 { return f.A + f.B*f.Model.g(n) }

// String renders the fit as "model (a=… b=… R²=…)".
func (f Fit) String() string {
	return fmt.Sprintf("%s (a=%.3g b=%.3g R²=%.4f)", f.Model.Name, f.A, f.B, f.R2)
}

// fitOne solves min ||y - (a + b*g(n))||² in closed form.
func fitOne(m Model, pts []Point) Fit {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := m.g(p.N)
		sx += x
		sy += p.Cost
		sxx += x * x
		sxy += x * p.Cost
	}
	var a, b float64
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		// Degenerate basis (constant model, or all x equal): intercept only.
		a, b = sy/n, 0
	} else {
		b = (n*sxy - sx*sy) / den
		a = (sy - b*sx) / n
	}
	if b < 0 {
		// Costs do not shrink with input size; a negative slope means the
		// model explains nothing beyond the mean.
		a, b = sy/n, 0
	}

	mean := sy / n
	var ssRes, ssTot float64
	for _, p := range pts {
		pred := a + b*m.g(p.N)
		ssRes += (p.Cost - pred) * (p.Cost - pred)
		ssTot += (p.Cost - mean) * (p.Cost - mean)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes > 0 {
		r2 = 0
	}
	return Fit{Model: m, A: a, B: b, R2: r2, RMSE: math.Sqrt(ssRes / n)}
}

// FitAll fits every model in the basis and returns the fits in basis order.
// It returns nil if there are fewer than two points.
func FitAll(pts []Point) []Fit {
	if len(pts) < 2 {
		return nil
	}
	fits := make([]Fit, 0, len(Models))
	for _, m := range Models {
		fits = append(fits, fitOne(m, pts))
	}
	return fits
}

// Best returns the model that best explains the points: the slowest-growing
// model whose R² is within a small tolerance of the best R² across the basis
// (Occam's razor over the growth hierarchy). If no model explains the data
// meaningfully — noisy flat measurements make every growth model fit the
// noise a little — the data is classified constant.
func Best(pts []Point) (Fit, error) {
	fits := FitAll(pts)
	if fits == nil {
		return Fit{}, fmt.Errorf("fit: need at least 2 points, have %d", len(pts))
	}
	maxR2 := fits[0].R2
	for _, f := range fits[1:] {
		if f.R2 > maxR2 {
			maxR2 = f.R2
		}
	}
	if maxR2 < 0.5 {
		return fits[0], nil // effectively flat: O(1)
	}
	const tolerance = 2e-3
	for _, f := range fits {
		if f.R2 >= maxR2-tolerance {
			return f, nil
		}
	}
	return fits[len(fits)-1], nil
}

// PowerLaw is a free-exponent fit y = Coeff * n^Exponent obtained by linear
// regression in log-log space (points with n <= 0 or y <= 0 are dropped).
type PowerLaw struct {
	Coeff, Exponent float64
	R2              float64
	Points          int
}

// String renders the power law as "c * n^e (R²=…)".
func (p PowerLaw) String() string {
	return fmt.Sprintf("%.3g * n^%.3f (R²=%.4f)", p.Coeff, p.Exponent, p.R2)
}

// FitPowerLaw performs the log-log regression.
func FitPowerLaw(pts []Point) (PowerLaw, error) {
	var xs, ys []float64
	for _, p := range pts {
		if p.N > 0 && p.Cost > 0 {
			xs = append(xs, math.Log(p.N))
			ys = append(ys, math.Log(p.Cost))
		}
	}
	if len(xs) < 2 {
		return PowerLaw{}, fmt.Errorf("fit: need at least 2 positive points for a power law, have %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return PowerLaw{}, fmt.Errorf("fit: all input sizes equal; power law undefined")
	}
	k := (n*sxy - sx*sy) / den
	c := math.Exp((sy - k*sx) / n)

	mean := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := math.Log(c) + k*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - mean) * (ys[i] - mean)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return PowerLaw{Coeff: c, Exponent: k, R2: r2, Points: len(xs)}, nil
}

// PowerLawCI estimates the stability of a power-law fit's exponent with the
// jackknife: the fit is recomputed leaving out each point in turn, and the
// spread of the resulting exponents yields a standard error. Wide intervals
// flag cost plots whose apparent growth hinges on one or two points — the
// kind of fragile fit a regression detector should not trust blindly.
type PowerLawCI struct {
	PowerLaw
	// ExponentStderr is the jackknife standard error of the exponent.
	ExponentStderr float64
}

// FitPowerLawCI fits the power law and jackknifes the exponent. It needs at
// least 3 positive points.
func FitPowerLawCI(pts []Point) (PowerLawCI, error) {
	full, err := FitPowerLaw(pts)
	if err != nil {
		return PowerLawCI{}, err
	}
	var positive []Point
	for _, p := range pts {
		if p.N > 0 && p.Cost > 0 {
			positive = append(positive, p)
		}
	}
	n := len(positive)
	if n < 3 {
		return PowerLawCI{}, fmt.Errorf("fit: need at least 3 positive points for a jackknife, have %d", n)
	}
	loo := make([]Point, 0, n-1)
	var exps []float64
	for skip := 0; skip < n; skip++ {
		loo = loo[:0]
		for i, p := range positive {
			if i != skip {
				loo = append(loo, p)
			}
		}
		pl, err := FitPowerLaw(loo)
		if err != nil {
			continue // degenerate subset (e.g. all-equal n); skip
		}
		exps = append(exps, pl.Exponent)
	}
	if len(exps) < 2 {
		return PowerLawCI{PowerLaw: full}, nil
	}
	mean := 0.0
	for _, e := range exps {
		mean += e
	}
	mean /= float64(len(exps))
	ss := 0.0
	for _, e := range exps {
		ss += (e - mean) * (e - mean)
	}
	m := float64(len(exps))
	stderr := math.Sqrt((m - 1) / m * ss)
	return PowerLawCI{PowerLaw: full, ExponentStderr: stderr}, nil
}
