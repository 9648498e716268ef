package main

import "testing"

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0},    // even the median has only 9 beyond
		{20, 50},   // 10 beyond the median
		{99, 80},   // p90 would rest on 9 samples
		{100, 90},  // exactly 10 beyond p90
		{999, 95},  // p99 would rest on 9 samples
		{1000, 99}, // exactly 10 beyond p99
		{10000, 99.9},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 0 && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
