package ser

import (
	"bytes"
	"context"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/lut"
	"repro/internal/spice"
)

var (
	sysOnce sync.Once
	testSys *System
)

func sys() *System {
	sysOnce.Do(func() { testSys = NewSystem(CoarseCharacterization) })
	return testSys
}

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) < 10 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	for _, n := range names {
		c, err := Benchmark(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", n, err)
		}
	}
}

func TestParseWriteBench(t *testing.T) {
	c, err := Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench(strings.NewReader(buf.String()), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() {
		t.Fatal("round trip changed gate count")
	}
}

func TestAnalyzeC17(t *testing.T) {
	c, _ := Benchmark("c17")
	rep, err := sys().Analyze(c, AnalysisOptions{Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.U <= 0 {
		t.Fatal("U must be positive")
	}
	if len(rep.Gates) != 6 {
		t.Fatalf("gate reports = %d, want 6", len(rep.Gates))
	}
	soft := rep.Softest(3)
	if len(soft) != 3 {
		t.Fatalf("Softest(3) = %d entries", len(soft))
	}
	if soft[0].U < soft[1].U || soft[1].U < soft[2].U {
		t.Fatal("Softest not sorted")
	}
	if rep.Raw() == nil {
		t.Fatal("Raw analysis missing")
	}
}

// TestLeanMatchesFull pins the analysis' one electrical pass, which
// keeps only W_ij and works in a recycled compact arena (the old lean
// mode, whose name the test keeps), to the full WS_ijk table that
// WSTable expands on demand: interpolating every WSTable row at
// the gate's generated width (§3.2 step iv) must give back every W_ij,
// and re-reducing those W_ij must give back U, bit for bit, from a few
// hundred to a few thousand gates. RecomputeU and RecomputeUFull at
// the baseline delays must then return U too.
func TestLeanMatchesFull(t *testing.T) {
	for _, name := range []string{"c432", "c1355", "c2670", "c7552"} {
		c, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys().AnalyzeCompiledContext(context.Background(), h, AnalysisOptions{Vectors: 2000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		a := rep.Raw()
		ws := a.WSTable()
		if len(ws) != len(c.Gates) || len(a.Wij) != len(c.Gates) {
			t.Fatalf("%s: %d WS rows, %d Wij rows for %d gates", name, len(ws), len(a.Wij), len(c.Gates))
		}
		clock := a.Config.ClockPeriod
		u := 0.0
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			own := -1
			if g.PO {
				own, _ = h.cc.POColumn(g.ID)
			}
			sum := 0.0
			for j, row := range ws[g.ID] {
				want := lut.Interp1D(a.Samples, row, a.GenWidth[g.ID])
				if j == own {
					want = a.GenWidth[g.ID] // step (ii): the glitch itself
				}
				if a.Wij[g.ID][j] != want {
					t.Fatalf("%s: gate %s PO %d: Wij = %v, WSTable row gives %v", name, g.Name, j, a.Wij[g.ID][j], want)
				}
				sum += min(want, clock)
			}
			u += a.Flux[g.ID] * sum / 1e-12
		}
		if u != rep.U {
			t.Fatalf("%s: U from the WSTable rows = %v, analysis %v", name, u, rep.U)
		}
		for _, recompute := range []func([]float64) (float64, error){a.RecomputeU, a.RecomputeUFull} {
			got, err := recompute(append([]float64(nil), a.Delays...))
			if err != nil {
				t.Fatal(err)
			}
			if got != rep.U {
				t.Fatalf("%s: recomputed U at the baseline delays = %v, analysis %v", name, got, rep.U)
			}
		}
	}
}

func TestOptimizeC17(t *testing.T) {
	c, _ := Benchmark("c17")
	res, err := sys().Optimize(c, OptimizeOptions{
		Vectors:    1000,
		Iterations: 2,
		MaxBasis:   4,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineU <= 0 {
		t.Fatal("baseline U must be positive")
	}
	if res.AreaRatio <= 0 || res.EnergyRatio <= 0 || res.DelayRatio <= 0 {
		t.Fatalf("ratios: %+v", res)
	}
	if res.Raw() == nil {
		t.Fatal("Raw result missing")
	}
}

func TestSummary(t *testing.T) {
	c, _ := Benchmark("c17")
	s := Summary(c)
	for _, frag := range []string{"c17", "5 PIs", "2 POs", "6 gates"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary %q missing %q", s, frag)
		}
	}
}

func TestSaveLoadLibrary(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/lib.json"
	s := sys()
	// Force INV characterization through an analysis.
	c, _ := Benchmark("c17")
	if _, err := s.Analyze(c, AnalysisOptions{Vectors: 500, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLibrary(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(CoarseCharacterization)
	if err := s2.LoadLibrary(path); err != nil {
		t.Fatal(err)
	}
	rep1, err := s.Analyze(c, AnalysisOptions{Vectors: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Analyze(c, AnalysisOptions{Vectors: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.U != rep2.U {
		t.Fatalf("library round trip changed analysis: %g vs %g", rep1.U, rep2.U)
	}
}

func TestLoadBenchFileMissing(t *testing.T) {
	if _, err := LoadBenchFile("/nonexistent/foo.bench"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadBenchFileName pins the circuit name LoadBenchFile takes from
// the path: the base name without its last extension, a name with no
// extension kept whole, and a leading dot never taken for one.
func TestLoadBenchFileName(t *testing.T) {
	c17, _ := Benchmark("c17")
	var text bytes.Buffer
	if err := WriteBench(&text, c17); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(dir+"/nets.v2", 0o755); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"nets.v2/my.net.bench": "my.net",
		"nets.v2/noext":        "noext",
		".hidden.bench":        ".hidden",
		".c17":                 ".c17",
	} {
		if err := os.WriteFile(dir+"/"+path, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadBenchFile(dir + "/" + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if c.Name != want {
			t.Errorf("%s: circuit name %q, want %q", path, c.Name, want)
		}
	}
}

// TestAnalyzeRejectsCellOfWrongClass checks that a hand-built
// assignment must give each gate a cell of the gate's own type and
// fan-in: c17's gate 10 is a NAND2, and analyzing it as an inverter
// must fail with an error naming the gate, not return a U.
func TestAnalyzeRejectsCellOfWrongClass(t *testing.T) {
	c, _ := Benchmark("c17")
	cells := make([]charlib.Cell, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type != ckt.Input {
			cells[g.ID] = charlib.Cell{Type: g.Type, Fanin: len(g.Fanin), Params: spice.Nominal(sys().Tech, 1)}
		}
	}
	opts := AnalysisOptions{Vectors: 500, Seed: 1, Cells: cells}
	if _, err := sys().Analyze(c, opts); err != nil {
		t.Fatalf("nominal cells refused: %v", err)
	}
	id, _ := c.GateByName("10")
	cells[id] = charlib.Cell{Type: ckt.Not, Fanin: 1, Params: cells[id].Params}
	if _, err := sys().Analyze(c, opts); err == nil || !strings.Contains(err.Error(), "gate 10 ") {
		t.Fatalf("NAND2 gate 10 analyzed as an inverter: error %v, want one naming the gate", err)
	}
}

// TestAnalyzeRefusesUnusableCells checks that a hand-built cell whose
// size, channel length, VDD or Vth is NaN, infinite, zero or negative
// is refused with an error naming its gate. A NaN size used to panic
// past a table axis, and a size of 0, -1 or +Inf gave a U.
func TestAnalyzeRefusesUnusableCells(t *testing.T) {
	c, _ := Benchmark("c17")
	id, _ := c.GateByName("10")
	for _, tc := range []struct {
		name string
		set  func(p *spice.Params)
	}{
		{"size NaN", func(p *spice.Params) { p.Size = math.NaN() }},
		{"size 0", func(p *spice.Params) { p.Size = 0 }},
		{"size -1", func(p *spice.Params) { p.Size = -1 }},
		{"size +Inf", func(p *spice.Params) { p.Size = math.Inf(1) }},
		{"L NaN", func(p *spice.Params) { p.L = math.NaN() }},
		{"VDD 0", func(p *spice.Params) { p.VDD = 0 }},
		{"Vth -Inf", func(p *spice.Params) { p.Vth = math.Inf(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := make([]charlib.Cell, len(c.Gates))
			for _, g := range c.Gates {
				if g.Type != ckt.Input {
					cells[g.ID] = charlib.Cell{Type: g.Type, Fanin: len(g.Fanin), Params: spice.Nominal(sys().Tech, 1)}
				}
			}
			tc.set(&cells[id].Params)
			rep, err := sys().Analyze(c, AnalysisOptions{Vectors: 500, Seed: 1, Cells: cells})
			if err == nil {
				t.Fatalf("analyzed to U %g, want an error naming gate 10", rep.U)
			}
			if !strings.Contains(err.Error(), "gate 10:") {
				t.Fatalf("error %q does not name gate 10", err)
			}
		})
	}
}

// TestAnalyzePOLoad checks that a NaN or infinite PO load is refused,
// by the combinational and the sequential analysis, and that a
// negative one selects the default for the baseline sizing as well as
// the analysis, as zero does. A NaN load used to panic past a table
// axis, and sizing used to read a negative load that the analysis
// then replaced: the NAND below, a PO that drives six inverters, was
// sized down for it, which doubled U.
func TestAnalyzePOLoad(t *testing.T) {
	c17, _ := Benchmark("c17")
	s27, _ := Benchmark("s27")
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if rep, err := sys().Analyze(c17, AnalysisOptions{Vectors: 500, Seed: 1, POLoad: load}); err == nil {
			t.Errorf("c17 at POLoad %g: U %g, want an error", load, rep.U)
		}
		if rep, err := sys().AnalyzeSequential(s27, SequentialOptions{Vectors: 500, Seed: 1, POLoad: load}); err == nil {
			t.Errorf("s27 at POLoad %g: U %g, want an error", load, rep.U)
		}
	}
	c, err := ParseBench(strings.NewReader(`INPUT(a)
INPUT(b)
OUTPUT(n)
OUTPUT(o1)
OUTPUT(o2)
OUTPUT(o3)
OUTPUT(o4)
OUTPUT(o5)
OUTPUT(o6)
n = NAND(a, b)
o1 = NOT(n)
o2 = NOT(n)
o3 = NOT(n)
o4 = NOT(n)
o5 = NOT(n)
o6 = NOT(n)
`), "po-fanout")
	if err != nil {
		t.Fatal(err)
	}
	def, err := sys().Analyze(c, AnalysisOptions{Vectors: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := sys().Analyze(c, AnalysisOptions{Vectors: 500, Seed: 1, POLoad: -1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if neg.U != def.U {
		t.Errorf("U %v at POLoad -1 fF, %v at the default; a negative load must select the default", neg.U, def.U)
	}
}

func TestSaveLibraryCreatesParentAtomically(t *testing.T) {
	dir := t.TempDir()
	// Nested parent that does not exist yet: SaveLibrary must create it.
	path := dir + "/cache/nested/lib.json"
	s := sys()
	c, _ := Benchmark("c17")
	if _, err := s.Analyze(c, AnalysisOptions{Vectors: 500, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLibrary(path); err != nil {
		t.Fatal(err)
	}
	// The write is temp-file + rename: no stray temp files may remain
	// next to the cache.
	entries, err := os.ReadDir(dir + "/cache/nested")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "lib.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("cache dir holds %v, want exactly lib.json", names)
	}
	s2 := NewSystem(CoarseCharacterization)
	if err := s2.LoadLibrary(path); err != nil {
		t.Fatalf("reload of atomically written cache: %v", err)
	}
}

func TestAnalyzeContextCancellation(t *testing.T) {
	c, _ := Benchmark("c17")
	h, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys().AnalyzeCompiledContext(ctx, h, AnalysisOptions{Vectors: 500}); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if _, err := sys().OptimizeCompiledContext(ctx, h, OptimizeOptions{Vectors: 500}); err == nil {
		t.Fatal("cancelled context accepted by optimizer")
	}
	// A live context must behave exactly like the plain calls.
	rep, err := sys().AnalyzeCompiledContext(context.Background(), h, AnalysisOptions{Vectors: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys().Analyze(c, AnalysisOptions{Vectors: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.U != plain.U {
		t.Fatalf("AnalyzeCompiledContext U = %v, Analyze U = %v (must be bit-identical)", rep.U, plain.U)
	}
}

func TestConcurrentAnalyzeSharedLibrary(t *testing.T) {
	// Concurrent Analyze calls on one System must coalesce
	// characterization (singleflight) and agree bit-for-bit.
	s := NewSystem(CoarseCharacterization)
	c, _ := Benchmark("c17")
	want := int64(0)
	if got := s.Characterizations(); got != want {
		t.Fatalf("cold system reports %d characterizations", got)
	}
	const n = 6
	var wg sync.WaitGroup
	us := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := s.Analyze(c, AnalysisOptions{Vectors: 500, Seed: 9})
			if err != nil {
				errs[i] = err
				return
			}
			us[i] = rep.U
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if us[i] != us[0] {
			t.Fatalf("goroutine %d: U=%v differs from U=%v", i, us[i], us[0])
		}
	}
	// c17 is all NAND2: exactly one characterization despite n
	// concurrent cold-start analyses.
	if got := s.Characterizations(); got != 1 {
		t.Fatalf("%d concurrent analyses ran %d characterizations, want 1", n, got)
	}
}

func TestAnalyzeRejectsSequential(t *testing.T) {
	s := NewSystem(CoarseCharacterization)
	c, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(c, AnalysisOptions{Vectors: 100}); err == nil {
		t.Fatal("combinational Analyze accepted a sequential circuit")
	}
	if _, err := s.Optimize(c, OptimizeOptions{Vectors: 100}); err == nil {
		t.Fatal("Optimize accepted a sequential circuit")
	}
}

func TestAnalyzeSequentialS27(t *testing.T) {
	s := NewSystem(CoarseCharacterization)
	c, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.AnalyzeSequential(c, SequentialOptions{Cycles: 4, Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flops != 3 || rep.Cycles != 4 {
		t.Fatalf("shape = %d flops, %d cycles", rep.Flops, rep.Cycles)
	}
	if rep.U <= 0 || rep.DirectU <= 0 || rep.LatchedU <= 0 || rep.FIT <= 0 {
		t.Fatalf("degenerate result: %+v", rep)
	}
	if got := rep.DirectU + rep.LatchedU; got != rep.U {
		t.Fatalf("U = %v != direct+latched = %v", rep.U, got)
	}
	if len(rep.Gates) != 10 || len(rep.FlopReports) != 3 {
		t.Fatalf("report sizes: %d gates, %d flops", len(rep.Gates), len(rep.FlopReports))
	}
	soft := rep.Softest(3)
	if len(soft) != 3 || soft[0].U < soft[1].U {
		t.Fatalf("Softest not sorted: %+v", soft)
	}
	// A combinational circuit through the sequential path degenerates
	// to the combinational result.
	c17, err := Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	seqRep, err := s.AnalyzeSequential(c17, SequentialOptions{Cycles: 4, Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	combRep, err := s.Analyze(c17, AnalysisOptions{Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seqRep.LatchedU != 0 || seqRep.U != combRep.U {
		t.Fatalf("combinational degeneration broken: seq U=%v latched=%v, comb U=%v",
			seqRep.U, seqRep.LatchedU, combRep.U)
	}
}
