package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place); 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a report may use for its tail, highest
// first, in hundredths of a percent so the rank arithmetic stays exact.
var tailLevels = []int{9999, 9990, 9900, 9500, 9000, 5000}

// tail picks the highest percentile of xs that still has at least ten
// samples beyond its nearest rank, and returns it with its value. ok is false
// when not even the median qualifies.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLevels {
		rank := (n*p + 9999) / 10000
		if n-rank >= 10 {
			return float64(p) / 100, quantile(xs, float64(p)/10000), true
		}
	}
	return 0, 0, false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
