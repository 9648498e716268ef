package main

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// A span is one timed interval of an op: a layer boundary the
// benchmark crossed, or a stage the program recorded.
type span struct {
	name       string
	start, end time.Time
}

// spanLog collects one traced op's spans in memory. A nil *spanLog is
// the untraced case: every method is a no-op, so op code records
// unconditionally.
type spanLog struct {
	spans []span
	// n holds the op's counts, reported next to its layer times.
	n map[string]float64
}

// begin starts a span and returns the function that ends it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { l.spans = append(l.spans, span{name, t0, time.Now()}) }
}

func (l *spanLog) spanList() []span { return l.spans }

func (l *spanLog) counts() map[string]float64 { return l.n }

// addRecorded appends the stage spans a program recorder collected.
func (l *spanLog) addRecorded(rec *trace.Recorder) {
	if l == nil {
		return
	}
	for _, s := range rec.Spans() {
		l.spans = append(l.spans, span{s.Name, s.Start, s.Start.Add(s.Duration)})
	}
}

// selfTimes attributes every instant of the op's wall interval
// [t0, t1] to the innermost spans running then. Spans are flat and may
// overlap, so nesting is read from the intervals themselves: a span
// contains another when its interval covers the other's. An instant
// covered by several spans none of which contains another is split
// evenly between them, and an instant no span covers is "other". The
// returned self times plus other therefore sum to t1 - t0 exactly.
func selfTimes(spans []span, t0, t1 time.Time) (self map[string]time.Duration, other time.Duration) {
	self = make(map[string]time.Duration)
	var clipped []span
	points := []time.Time{t0, t1}
	for _, s := range spans {
		if s.start.Before(t0) {
			s.start = t0
		}
		if s.end.After(t1) {
			s.end = t1
		}
		if !s.end.After(s.start) {
			continue
		}
		clipped = append(clipped, s)
		points = append(points, s.start, s.end)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Before(points[j]) })
	// contains reports whether span i nests span j; identical
	// intervals nest in recording order.
	contains := func(i, j int) bool {
		a, b := clipped[i], clipped[j]
		if a.start.Equal(b.start) && a.end.Equal(b.end) {
			return i < j
		}
		return !b.start.Before(a.start) && !a.end.Before(b.end)
	}
	var active, leaves []int
	for k := 0; k+1 < len(points); k++ {
		lo, hi := points[k], points[k+1]
		seg := hi.Sub(lo)
		if seg <= 0 {
			continue
		}
		active = active[:0]
		for i, s := range clipped {
			if !s.start.After(lo) && !s.end.Before(hi) {
				active = append(active, i)
			}
		}
		leaves = leaves[:0]
		for _, i := range active {
			leaf := true
			for _, j := range active {
				if j != i && contains(i, j) {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, i)
			}
		}
		if len(leaves) == 0 {
			other += seg
			continue
		}
		share := seg / time.Duration(len(leaves))
		for n, i := range leaves {
			d := share
			if n == 0 {
				d += seg - share*time.Duration(len(leaves)) // integer remainder
			}
			self[clipped[i].name] += d
		}
	}
	return self, other
}

// nest splits a parent layer's time between stages that ran inside it
// but were not recorded as spans, by their shares of the parent's time.
// Shares summing past 1 are scaled down, so the total is unchanged.
func nest(sum map[string]float64, parent string, shares map[string]float64) {
	var total float64
	for _, f := range shares {
		total += f
	}
	scale := 1.0
	if total > 1 {
		scale = 1 / total
	}
	t := sum[parent]
	for st, f := range shares {
		sum[st] += f * scale * t
		sum[parent] -= f * scale * t
	}
}

// layers reduces a traced op's spans to per-layer self times in
// milliseconds plus "other", over the op's wall interval [t0, t1].
func (l *spanLog) layers(t0, t1 time.Time) map[string]float64 {
	self, other := selfTimes(l.spans, t0, t1)
	out := map[string]float64{"other": ms(other)}
	for name, d := range self {
		out[name] += ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
