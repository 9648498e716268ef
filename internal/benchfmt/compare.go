package benchfmt

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CompareOptions tune the regression gate.
type CompareOptions struct {
	// MetricTol is the allowed relative drift of every paper metric
	// (correlation, %U-decrease, ps-glitch-size1, ...). The pipeline is
	// deterministic — parallel reductions are bit-identical to serial —
	// so the default is tight: 0.5%.
	MetricTol float64
	// NsFactor is the allowed ns/op slowdown factor. CI runners are
	// noisy and heterogenous, so the default bound is loose: 2.5x.
	// Speedups never fail.
	NsFactor float64
	// SkipMemMetrics excludes -benchmem columns (B/op, allocs/op) from
	// the metric check; allocation counts legitimately change with
	// GOMAXPROCS (per-worker scratch arenas). Default true via
	// WithDefaults.
	SkipMemMetrics bool
	// AllocFactor, when positive, still gates allocs/op with this
	// multiplicative bound even while SkipMemMetrics drops the exact
	// -benchmem comparison. Worker-count variation moves allocation
	// counts by small factors (one scratch arena per worker); a per-call
	// allocation regression in a hot loop moves them by orders of
	// magnitude, so a loose factor separates the two cleanly.
	AllocFactor float64
	// MemCeilingsB, when non-empty, gates the named benchmarks' B/op
	// against an absolute byte ceiling — independent of any baseline
	// (an empty baseline report works). Relative factors cannot pin
	// "a 1M-gate compile stays under N bytes"; an absolute ceiling
	// can, which is what keeps million-gate memory budgets honest in
	// CI. A benchmark named here must be present in the run and carry
	// a B/op metric (-benchmem), otherwise that is itself a violation
	// — a ceiling that silently stops being measured is no ceiling.
	MemCeilingsB map[string]float64
}

// WithDefaults fills zero fields with the gate defaults.
func (o CompareOptions) WithDefaults() CompareOptions {
	if o.MetricTol <= 0 {
		o.MetricTol = 0.005
	}
	if o.NsFactor <= 0 {
		o.NsFactor = 2.5
	}
	return o
}

// memMetrics are the -benchmem columns.
func isMemMetric(unit string) bool {
	return unit == "B/op" || unit == "allocs/op"
}

// Regression is one detected violation.
type Regression struct {
	// Benchmark is the short benchmark name; Metric the offending
	// quantity ("ns/op" or a paper-metric unit), empty when the whole
	// benchmark is missing.
	Benchmark string
	Metric    string
	Base, New float64
	// Reason is a human-readable explanation including the bound.
	Reason string
}

// String renders the regression as a one-line diagnostic.
func (r Regression) String() string {
	if r.Metric == "" {
		return fmt.Sprintf("%s: %s", r.Benchmark, r.Reason)
	}
	return fmt.Sprintf("%s %s: base %g, new %g (%s)", r.Benchmark, r.Metric, r.Base, r.New, r.Reason)
}

// Compare checks a new report against a baseline and returns every
// violation: a benchmark present in the baseline but missing from the
// new run, a paper metric drifting beyond MetricTol relative
// tolerance, or ns/op regressing beyond NsFactor. New benchmarks and
// new metrics (absent from the baseline) never fail — the trajectory
// only ratchets on what the baseline records.
func Compare(base, cur *Report, opts CompareOptions) []Regression {
	opts = opts.WithDefaults()
	curByName := make(map[string]*Benchmark, len(cur.Benchmarks))
	for i := range cur.Benchmarks {
		b := &cur.Benchmarks[i]
		curByName[b.Name] = b
	}
	var regs []Regression
	for i := range base.Benchmarks {
		bb := &base.Benchmarks[i]
		nb, ok := curByName[bb.Name]
		if !ok {
			regs = append(regs, Regression{
				Benchmark: bb.Name,
				Reason:    "benchmark present in baseline but missing from this run",
			})
			continue
		}
		if bb.NsPerOp > 0 && nb.NsPerOp > bb.NsPerOp*opts.NsFactor {
			regs = append(regs, Regression{
				Benchmark: bb.Name,
				Metric:    "ns/op",
				Base:      bb.NsPerOp,
				New:       nb.NsPerOp,
				Reason:    fmt.Sprintf("%.2fx slower, limit %.2fx", nb.NsPerOp/bb.NsPerOp, opts.NsFactor),
			})
		}
		for unit, bv := range bb.Metrics {
			if isMemMetric(unit) {
				if unit == "allocs/op" && opts.AllocFactor > 0 {
					if nv, ok := nb.Metrics[unit]; ok && bv > 0 && nv > bv*opts.AllocFactor {
						regs = append(regs, Regression{
							Benchmark: bb.Name,
							Metric:    unit,
							Base:      bv,
							New:       nv,
							Reason:    fmt.Sprintf("%.1fx more allocations, limit %.1fx", nv/bv, opts.AllocFactor),
						})
					}
					continue
				}
				if opts.SkipMemMetrics {
					continue
				}
			}
			nv, ok := nb.Metrics[unit]
			if !ok {
				regs = append(regs, Regression{
					Benchmark: bb.Name,
					Metric:    unit,
					Base:      bv,
					Reason:    "metric present in baseline but missing from this run",
				})
				continue
			}
			denom := math.Abs(bv)
			if denom < 1e-30 {
				denom = 1e-30
			}
			if drift := math.Abs(nv-bv) / denom; drift > opts.MetricTol {
				regs = append(regs, Regression{
					Benchmark: bb.Name,
					Metric:    unit,
					Base:      bv,
					New:       nv,
					Reason:    fmt.Sprintf("drift %.4f%%, tolerance %.4f%%", 100*drift, 100*opts.MetricTol),
				})
			}
		}
	}
	regs = append(regs, compareMemCeilings(curByName, opts)...)
	return regs
}

// compareMemCeilings applies the absolute B/op ceilings in
// deterministic (sorted) order.
func compareMemCeilings(curByName map[string]*Benchmark, opts CompareOptions) []Regression {
	names := make([]string, 0, len(opts.MemCeilingsB))
	for name := range opts.MemCeilingsB {
		names = append(names, name)
	}
	sort.Strings(names)
	var regs []Regression
	for _, name := range names {
		ceil := opts.MemCeilingsB[name]
		nb, ok := curByName[name]
		if !ok {
			regs = append(regs, Regression{
				Benchmark: name,
				Metric:    "B/op",
				Base:      ceil,
				Reason:    "benchmark has a B/op ceiling but is missing from this run",
			})
			continue
		}
		bop, ok := nb.Metrics["B/op"]
		if !ok {
			regs = append(regs, Regression{
				Benchmark: name,
				Metric:    "B/op",
				Base:      ceil,
				Reason:    "B/op ceiling set but the run has no B/op metric (need -benchmem)",
			})
			continue
		}
		if bop > ceil {
			regs = append(regs, Regression{
				Benchmark: name,
				Metric:    "B/op",
				Base:      ceil,
				New:       bop,
				Reason:    fmt.Sprintf("%.0f B/op over the absolute ceiling %.0f", bop, ceil),
			})
		}
	}
	return regs
}

// FormatRegressions renders the violations as a readable block, one
// line per regression.
func FormatRegressions(regs []Regression) string {
	if len(regs) == 0 {
		return "no regressions"
	}
	var sb strings.Builder
	for _, r := range regs {
		sb.WriteString("  REGRESSION ")
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
