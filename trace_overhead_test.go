package ser

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestTracingOverheadBudget is the guard that keeps the stage
// instrumentation effectively free on the hot path: the cost of a
// disabled span (no recorder — what every un-traced request pays,
// which is a global histogram update and two clock reads) times the
// per-request span cap must stay under 2% of one warm c7552
// susceptibility analysis — the same steady state
// BenchmarkSusceptibilityC7552 pins in the CI ns/op gate. A direct
// budget comparison is deliberate: an A/B wall-clock diff of two full
// analyses would drown a sub-percent delta in run-to-run noise.
func TestTracingOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive budget check")
	}

	// Per-op cost of an untraced stage span, measured by the bench
	// harness (which picks N for a stable read).
	probe := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trace.StartStage(nil, "overhead.probe")()
		}
	})
	perSpanNS := float64(probe.NsPerOp())

	// One warm analysis on the benchmark's own steady state:
	// characterization done, sensitization memoized.
	s := NewSystem(CoarseCharacterization)
	c, err := Benchmark("c7552")
	if err != nil {
		t.Fatal(err)
	}
	h, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalysisOptions{Vectors: 10000, Seed: 1}
	if _, err := s.AnalyzeCompiledContext(context.Background(), h, opts); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := s.AnalyzeCompiledContext(context.Background(), h, opts); err != nil {
		t.Fatal(err)
	}
	warmNS := float64(time.Since(t0).Nanoseconds())

	// A request can record at most maxSpans (64) spans; charge the full
	// cap even though a real analysis starts far fewer.
	const spanCap = 64
	overheadNS := perSpanNS * spanCap
	if budget := warmNS * 0.02; overheadNS > budget {
		t.Fatalf("tracing overhead budget exceeded: %d spans x %.0f ns = %.0f ns, budget = %.0f ns (2%% of %.0f ns warm analysis)",
			spanCap, perSpanNS, overheadNS, budget, warmNS)
	}
	t.Logf("span cost %.0f ns; %d-span worst case = %.4f%% of warm analysis (%.2f ms)",
		perSpanNS, spanCap, 100*overheadNS/warmNS, warmNS/1e6)
}
