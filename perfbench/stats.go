package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule chooses from,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 80, 75, 50}

// rank returns the 0-based nearest-rank index of percentile p in n
// sorted samples: the smallest sample with at least p% of all samples
// at or below it.
func rank(n int, p float64) int {
	// The epsilon keeps percentiles such as 99.9, which binary floating
	// point cannot hold exactly, from rounding up a whole rank.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(k, 0), n-1)
}

// beyond returns how many of n samples lie above percentile p's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tailPercentile returns the highest candidate percentile with at
// least minBeyond samples beyond it among n samples, or 0 when even
// the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place), 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)]
}

// median returns the median of xs without reordering it, averaging the
// two middle samples of an even count.
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
