package main

import (
	"math"
	"sort"
)

// summary is a sample's median with its interquartile range and size.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) ("exclusive" method), so the spread
// the benchmark reports is the spread anyone recomputes from the raw values.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, N: len(s)}
}

// iqrShare is the interquartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of an ascending slice, by the exclusive method: the i-th cut
// point sits at rank i*(n+1)/4, interpolated and clamped to the data.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks.
func percentile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailPercentiles are the candidates for a timing's reported tail.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, so a reported tail always rests on ten
// observations; ok is false when even the median does not.
func highestPercentile(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if float64(n)*(100-tailPercentiles[i])/100 >= 10-1e-9 {
			return tailPercentiles[i], true
		}
	}
	return 0, false
}
