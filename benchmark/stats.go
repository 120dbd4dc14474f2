package main

import (
	"math"
	"sort"
)

// summary is what is kept of one metric's samples. With the three to
// five samples a run takes there is no honest percentile, so a run
// reports the median, the extremes and the count. Q1 and Q3 are for
// -compare, which pools ten or more runs; they are set from four
// samples on, computed as Python's statistics.quantiles(v, n=4) does.
type summary struct {
	Median, Min, Max float64
	Q1, Q3           float64
	N                int
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := summary{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
	if len(s) >= 4 {
		sum.Q1, sum.Q3 = quartileSorted(s, 1), quartileSorted(s, 3)
	}
	return sum
}

// quartileSorted is the k-th quartile by the exclusive method: the
// value at position k(n+1)/4, counting from one, interpolated.
func quartileSorted(s []float64, k int) float64 {
	n := len(s)
	j, delta := k*(n+1)/4, k*(n+1)%4
	j = min(max(j, 1), n-1)
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(samples []float64) float64 { return summarize(samples).Median }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

// spread is what -compare holds against a metric's bound to decide
// whether a difference between two result sets can be resolved at all:
// the distance between the quartiles as a share of the median, as the
// driver takes it, or the whole range while there are fewer than four
// samples to take quartiles of.
func (s summary) spread() float64 {
	if s.N == 0 || s.Median == 0 {
		return 0
	}
	if s.N >= 4 {
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}
