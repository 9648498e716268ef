package main

import (
	"testing"
	"time"
)

// at returns a time ms milliseconds after a fixed origin.
func at(ms int) time.Time {
	return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond)
}

func TestSelfTimesOverlappingFlatSpans(t *testing.T) {
	// A op of 100 ms: "outer" [10,60] contains "inner" [20,40]; "late"
	// [50,80] overlaps "outer" without either containing the other, so
	// [50,60] is split between them.
	spans := []span{
		{"late", at(50), at(80)},
		{"outer", at(10), at(60)},
		{"inner", at(20), at(40)},
	}
	self, other := selfTimes(spans, at(0), at(100))
	want := map[string]time.Duration{
		"outer": 25 * time.Millisecond, // [10,20] + [40,50] + half of [50,60]
		"inner": 20 * time.Millisecond,
		"late":  25 * time.Millisecond, // half of [50,60] + [60,80]
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if other != 30*time.Millisecond {
		t.Errorf("other = %v, want 30ms", other)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum+other != 100*time.Millisecond {
		t.Errorf("self times plus other = %v, want the 100ms wall", sum+other)
	}
}

func TestSelfTimesIdenticalAndClippedSpans(t *testing.T) {
	// Two spans over one interval nest in recording order; a span
	// reaching outside the op is clipped to it.
	spans := []span{
		{"a", at(0), at(10)},
		{"b", at(0), at(10)},
		{"c", at(-5), at(15)},
	}
	self, other := selfTimes(spans, at(0), at(12))
	if self["b"] != 10*time.Millisecond || self["a"] != 0 || self["c"] != 2*time.Millisecond || other != 0 {
		t.Errorf("self = %v, other = %v; want b 10ms, c 2ms, a 0, other 0", self, other)
	}
}

func TestNestSplitsParentByShares(t *testing.T) {
	sum := map[string]float64{"sertopt.optimize": 100, "bench.parse": 5}
	nest(sum, "sertopt.optimize", map[string]float64{"strike.electrical": 0.3, "strike.reduce": 0.1})
	if !near(sum["sertopt.optimize"], 60) || !near(sum["strike.electrical"], 30) || !near(sum["strike.reduce"], 10) || sum["bench.parse"] != 5 {
		t.Errorf("after nest: %v", sum)
	}
	// Shares past 1 are scaled to fit the parent.
	sum = map[string]float64{"sertopt.optimize": 50}
	nest(sum, "sertopt.optimize", map[string]float64{"strike.electrical": 2})
	if !near(sum["sertopt.optimize"], 0) || !near(sum["strike.electrical"], 50) {
		t.Errorf("after scaled nest: %v", sum)
	}
}
