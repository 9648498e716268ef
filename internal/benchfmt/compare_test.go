package benchfmt

import (
	"strings"
	"testing"
)

func report(benchmarks ...Benchmark) *Report {
	return &Report{Benchmarks: benchmarks}
}

func bench(name string, ns float64, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, FullName: "Benchmark" + name, Iterations: 1, NsPerOp: ns, Metrics: metrics}
}

func TestCompareClean(t *testing.T) {
	base := report(
		bench("Fig3Correlation", 1e9, map[string]float64{"correlation": 0.9841}),
		bench("Table1Optimization", 2e9, map[string]float64{"%U-decrease": 3.653}),
	)
	cur := report(
		// Faster and bit-identical metrics: clean.
		bench("Fig3Correlation", 4e8, map[string]float64{"correlation": 0.9841}),
		bench("Table1Optimization", 1.9e9, map[string]float64{"%U-decrease": 3.653}),
		// Extra benchmarks in the new run never fail.
		bench("NewSuite", 1e6, nil),
	)
	if regs := Compare(base, cur, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
}

func TestCompareMetricDrift(t *testing.T) {
	base := report(bench("Fig3Correlation", 1e9, map[string]float64{"correlation": 0.9841}))
	cur := report(bench("Fig3Correlation", 1e9, map[string]float64{"correlation": 0.9000}))
	regs := Compare(base, cur, CompareOptions{})
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Benchmark != "Fig3Correlation" || r.Metric != "correlation" {
		t.Fatalf("unexpected regression %+v", r)
	}
	// Within tolerance passes.
	cur2 := report(bench("Fig3Correlation", 1e9, map[string]float64{"correlation": 0.9840}))
	if regs := Compare(base, cur2, CompareOptions{MetricTol: 0.005}); len(regs) != 0 {
		t.Fatalf("0.01%% drift flagged at 0.5%% tolerance: %v", regs)
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := report(bench("Fig3Correlation", 1e9, nil))
	// 2.4x slower: inside the loose 2.5x bound.
	if regs := Compare(base, report(bench("Fig3Correlation", 2.4e9, nil)), CompareOptions{}); len(regs) != 0 {
		t.Fatalf("2.4x flagged under 2.5x bound: %v", regs)
	}
	// 3x slower: fails.
	regs := Compare(base, report(bench("Fig3Correlation", 3e9, nil)), CompareOptions{})
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("3x slowdown not flagged: %v", regs)
	}
}

func TestCompareMissing(t *testing.T) {
	base := report(
		bench("Fig3Correlation", 1e9, map[string]float64{"correlation": 0.9841}),
		bench("Gone", 1e6, nil),
	)
	cur := report(bench("Fig3Correlation", 1e9, map[string]float64{"B/op": 100}))
	regs := Compare(base, cur, CompareOptions{SkipMemMetrics: true})
	// Two violations: the Gone benchmark vanished, and the correlation
	// metric vanished from Fig3Correlation.
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	out := FormatRegressions(regs)
	if !strings.Contains(out, "Gone") || !strings.Contains(out, "correlation") {
		t.Fatalf("formatted output missing pieces:\n%s", out)
	}
}

func TestCompareSkipsMemMetrics(t *testing.T) {
	base := report(bench("X", 1e6, map[string]float64{"B/op": 1000, "allocs/op": 10}))
	cur := report(bench("X", 1e6, map[string]float64{"B/op": 9000, "allocs/op": 90}))
	if regs := Compare(base, cur, CompareOptions{SkipMemMetrics: true}); len(regs) != 0 {
		t.Fatalf("mem metrics flagged despite SkipMemMetrics: %v", regs)
	}
	if regs := Compare(base, cur, CompareOptions{SkipMemMetrics: false}); len(regs) != 2 {
		t.Fatalf("mem metrics not checked when enabled: %v", regs)
	}
}

func TestCompareAllocFactor(t *testing.T) {
	base := report(bench("X", 1e6, map[string]float64{"allocs/op": 10, "B/op": 1000}))
	// 9x more allocations under SkipMemMetrics alone: invisible.
	cur := report(bench("X", 1e6, map[string]float64{"allocs/op": 90, "B/op": 99000}))
	if regs := Compare(base, cur, CompareOptions{SkipMemMetrics: true}); len(regs) != 0 {
		t.Fatalf("skip-only run flagged: %v", regs)
	}
	// With the alloc gate the 9x blowup fails; B/op stays exempt.
	regs := Compare(base, cur, CompareOptions{SkipMemMetrics: true, AllocFactor: 8})
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("alloc blowup not flagged exactly once: %v", regs)
	}
	// Growth inside the factor passes (worker-count variation).
	cur2 := report(bench("X", 1e6, map[string]float64{"allocs/op": 40, "B/op": 4000}))
	if regs := Compare(base, cur2, CompareOptions{SkipMemMetrics: true, AllocFactor: 8}); len(regs) != 0 {
		t.Fatalf("4x alloc growth flagged under 8x bound: %v", regs)
	}
}

func TestCompareMemCeilings(t *testing.T) {
	ceil := map[string]float64{"Compile1M": 2e9}
	// Under the ceiling: clean, even with an empty baseline.
	cur := report(bench("Compile1M", 1e9, map[string]float64{"B/op": 1.5e9, "allocs/op": 100}))
	if regs := Compare(report(), cur, CompareOptions{MemCeilingsB: ceil}); len(regs) != 0 {
		t.Fatalf("under-ceiling run flagged: %v", regs)
	}
	// Over the ceiling: fails.
	cur = report(bench("Compile1M", 1e9, map[string]float64{"B/op": 2.5e9}))
	regs := Compare(report(), cur, CompareOptions{MemCeilingsB: ceil})
	if len(regs) != 1 || regs[0].Benchmark != "Compile1M" || regs[0].Metric != "B/op" {
		t.Fatalf("over-ceiling run not flagged: %v", regs)
	}
	// Missing benchmark or missing B/op metric: also violations — a
	// ceiling that stops being measured must not pass silently.
	if regs := Compare(report(), report(), CompareOptions{MemCeilingsB: ceil}); len(regs) != 1 {
		t.Fatalf("missing benchmark not flagged: %v", regs)
	}
	cur = report(bench("Compile1M", 1e9, nil))
	if regs := Compare(report(), cur, CompareOptions{MemCeilingsB: ceil}); len(regs) != 1 {
		t.Fatalf("missing B/op not flagged: %v", regs)
	}
}
