package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSummarizeMatchesPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, including its extrapolation on
// tiny samples.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.median) || !near(s.Q3, tc.q3) || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", tc.xs, s, tc.q1, tc.median, tc.q3)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4}); !near(s.iqrShare(), 2.5/2.5) {
		t.Errorf("iqrShare = %g, want 1", s.iqrShare())
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty sample summarized to %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{0, 10, 20, 30, 40}
	for p, want := range map[float64]float64{0: 0, 50: 20, 90: 36, 100: 40, 12.5: 5} {
		if got := percentile(s, p); !near(got, want) {
			t.Errorf("percentile(%v) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{9, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := highestPercentile(tc.n)
		if p != tc.p || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}
