package main

import (
	"cmp"
	"slices"
	"time"
)

// benchEpoch anchors the one monotonic clock every timestamp in the
// bench is read from, so spans from different goroutines and layers
// order on one timeline.
var benchEpoch = time.Now()

// now is nanoseconds since benchEpoch.
func now() int64 { return int64(time.Since(benchEpoch)) }

// sortedCopy returns a sorted copy of v.
func sortedCopy[T cmp.Ordered](v []T) []T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// percentile returns the q-quantile of sorted by nearest rank, 0 when
// empty.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// median of v (not necessarily sorted; v is left untouched), 0 when
// empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
