package main

import (
	"math"
	"sort"
)

// quantile is one reported percentile: its value, how many samples it
// was taken over, and whether at least minBeyond samples lie beyond it
// (the rule every percentile this benchmark reports must meet).
type quantile struct {
	Value float64
	N     int
	OK    bool
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// missing marks a sample that failed its limit outright (a shed or
// failed request): it sorts above every measured value.
var missing = math.Inf(1)

// quantiles sorts xs in place and returns the requested percentiles
// (p in [0,1], nearest-rank). A percentile that lands on a missing
// sample reports +Inf; one with fewer than minBeyond samples above it
// is marked not OK.
func quantiles(xs []float64, ps ...float64) []quantile {
	sort.Float64s(xs)
	out := make([]quantile, len(ps))
	for i, p := range ps {
		q := quantile{N: len(xs), Value: math.NaN()}
		if len(xs) > 0 {
			k := int(math.Ceil(p*float64(len(xs)))) - 1
			if k < 0 {
				k = 0
			}
			q.Value = xs[k]
			q.OK = len(xs)-1-k >= minBeyond
		}
		out[i] = q
	}
	return out
}

// median returns the median of xs (sorting a copy); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
