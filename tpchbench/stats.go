package main

import (
	"math"
	"sort"
	"time"
)

// failedMs is the latency a failed or wrong-row query counts as: larger
// than any limit, so it lands above every percentile it can reach.
const failedMs = math.MaxFloat64

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if xs[hi] == failedMs {
		return failedMs
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values; failedMs stays
// failedMs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x == failedMs {
			return failedMs
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
