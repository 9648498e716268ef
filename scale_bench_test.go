package ser

// Million-gate scale benchmarks. These are excluded from the regular
// paper-figure suite (scripts/bench.sh) by an explicit opt-in: set
// SCALE_BENCH=1 to run them. CI's `scale` job runs the pair once under
// GOMEMLIMIT with absolute B/op ceilings enforced by
// `benchreport -mem-ceiling` (see .github/workflows/ci.yml), so memory
// regressions on the million-gate path fail the build even though the
// benchmarks are too heavy for the per-PR bench gate.

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/stats"
)

// scaleGates is the benchmark netlist size: one million logic gates.
const scaleGates = 1_000_000

// scaleText streams the 1M-gate netlist once per process (~30 MB of
// .bench text; deterministic in the fixed seed).
var scaleText = sync.OnceValues(func() ([]byte, error) {
	var buf bytes.Buffer
	err := gen.WriteScale(&buf, gen.ScaleProfile{Gates: scaleGates, Seed: 1})
	return buf.Bytes(), err
})

func requireScaleBench(b *testing.B) []byte {
	b.Helper()
	if os.Getenv("SCALE_BENCH") == "" {
		b.Skip("set SCALE_BENCH=1 to run the million-gate benchmarks")
	}
	text, err := scaleText()
	if err != nil {
		b.Fatal(err)
	}
	return text
}

// BenchmarkCompile1M measures netlist-to-handle cost on the 1M-gate
// netlist: the streaming one-pass parser (bench.ParseStream) against
// the legacy Parse object-graph path, each followed by engine.Compile. Both produce bit-identical handles
// (asserted by the differential tests in internal/bench and
// internal/engine); the B/op and allocs/op columns are the point —
// the stream sub-benchmark's B/op carries the CI ceiling.
func BenchmarkCompile1M(b *testing.B) {
	text := requireScaleBench(b)
	var gates int
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := bench.ParseStream(bytes.NewReader(text), "scale1m")
			if err != nil {
				b.Fatal(err)
			}
			cc, err := engine.Compile(c)
			if err != nil {
				b.Fatal(err)
			}
			gates = len(cc.Circuit().Gates)
		}
		b.ReportMetric(float64(gates), "gates")
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := bench.Parse(bytes.NewReader(text), "scale1m")
			if err != nil {
				b.Fatal(err)
			}
			cc, err := engine.Compile(c)
			if err != nil {
				b.Fatal(err)
			}
			gates = len(cc.Circuit().Gates)
		}
		b.ReportMetric(float64(gates), "gates")
	})
}

// BenchmarkAnalyze1M measures bounded-memory sensitization on the
// 1M-gate netlist: 2048 random vectors under the default 2 GiB
// transient budget, with one fanin-cone walk per primary output and
// no per-circuit cone arena. The pinned pij-mass metric is
// deterministic (the DP is bit-identical at every budget and worker
// count), so the scale job checks the result, not just the footprint.
func BenchmarkAnalyze1M(b *testing.B) {
	text := requireScaleBench(b)
	c, err := bench.ParseStream(bytes.NewReader(text), "scale1m")
	if err != nil {
		b.Fatal(err)
	}
	cc, err := engine.Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var mass float64
	for i := 0; i < b.N; i++ {
		res, err := logicsim.AnalyzeCompiledBudget(cc, 2048, stats.NewRNG(1), 0, logicsim.DefaultSensBudgetBytes)
		if err != nil {
			b.Fatal(err)
		}
		mass = 0
		for _, row := range res.Pij {
			for _, p := range row {
				mass += p
			}
		}
	}
	b.ReportMetric(mass, "pij-mass")
}

// TestStreamCompileAllocAdvantage pins the streaming compiler's
// allocation advantage at a CI-friendly scale: on a 60k-gate netlist
// the legacy Parse+Compile path must allocate at least 4x as much as
// ParseStream+Compile. (The 1M-gate wall-clock and byte numbers live in the
// scale benchmarks; allocation counts are scale-independent enough to
// assert in a regular test.)
func TestStreamCompileAllocAdvantage(t *testing.T) {
	var buf bytes.Buffer
	if err := gen.WriteScale(&buf, gen.ScaleProfile{Gates: 60000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	var cerr error
	streamAllocs := testing.AllocsPerRun(1, func() {
		c, err := bench.ParseStream(bytes.NewReader(text), "s")
		if err != nil {
			cerr = err
			return
		}
		if _, err := engine.Compile(c); err != nil {
			cerr = err
		}
	})
	legacyAllocs := testing.AllocsPerRun(1, func() {
		c, err := bench.Parse(bytes.NewReader(text), "s")
		if err != nil {
			cerr = err
			return
		}
		if _, err := engine.Compile(c); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if legacyAllocs < 4*streamAllocs {
		t.Fatalf("legacy path allocates %.0f objects vs stream %.0f (< 4x advantage)",
			legacyAllocs, streamAllocs)
	}
	t.Logf("allocs: legacy %.0f, stream %.0f (%.1fx)", legacyAllocs, streamAllocs, legacyAllocs/streamAllocs)
}
