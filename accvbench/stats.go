package main

import (
	"math"
	"sort"
	"time"
)

// percentile is a nearest-rank percentile together with the number of
// samples it was taken over, so a p99 of eight samples (their maximum)
// cannot be mistaken for a tail estimate.
type percentile struct {
	Value float64
	N     int
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. It does not reorder xs. An empty input yields
// a zero value with N = 0.
func nearestRank(xs []float64, p float64) percentile {
	if len(xs) == 0 {
		return percentile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return percentile{Value: s[rank-1], N: len(s)}
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to fractional milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
