package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p % of the sample
// at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The small slack keeps a product that is whole in exact
// arithmetic (99.9 % of 10,000) from being pushed up a rank by rounding.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// median returns the 50th percentile of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailLevels are the percentiles a tail latency may be reported at.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest level in tailLevels that still has
// at least ten samples beyond it, and the value there; a percentile with
// fewer samples above it is one outlier, not a measurement. With too
// few samples for any level it falls back to the median (level 50).
func tailPercentile(sorted []float64) (level, value float64) {
	n := len(sorted)
	for _, p := range tailLevels {
		if n-rank(p, n) >= 10 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
