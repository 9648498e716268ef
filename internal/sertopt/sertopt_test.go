package sertopt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

var (
	libOnce sync.Once
	testLib *charlib.Library
)

func lib() *charlib.Library {
	libOnce.Do(func() {
		testLib = charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	})
	return testLib
}

func coarseMatch() MatchConfig {
	return MatchConfig{VDDs: []float64{0.8, 1.2}, Vths: []float64{0.1, 0.3}}
}

// pathDelays returns T·d for a per-gate delay vector: each enumerated
// path's summed gate delays.
func pathDelays(tp *Topology, d []float64) []float64 {
	out := make([]float64, len(tp.Paths))
	for j, p := range tp.Paths {
		for _, id := range p {
			out[j] += d[id]
		}
	}
	return out
}

func TestBuildTopologyC17(t *testing.T) {
	c := gen.C17()
	tp, err := BuildTopology(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp.T().Rows() != 11 {
		t.Fatalf("c17 topology has %d paths, want 11", tp.T().Rows())
	}
	if tp.T().Cols() != 6 {
		t.Fatalf("c17 topology has %d columns, want 6 gates", tp.T().Cols())
	}
	// Every row must have at least one gate and at most the depth.
	for j := 0; j < tp.T().Rows(); j++ {
		ones := 0
		for col := 0; col < tp.T().Cols(); col++ {
			if tp.T().At(j, col) == 1 {
				ones++
			}
		}
		if ones < 1 || ones > 3 {
			t.Fatalf("path %d covers %d gates, want 1..3", j, ones)
		}
	}
}

// Property: for any Δ in the nullspace basis, path delays are exactly
// preserved (T·(d0+Δ) = T·d0).
func TestNullspacePreservesPathDelays(t *testing.T) {
	c := gen.C17()
	tp, err := BuildTopology(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	basis := tp.Nullspace(0)
	if len(basis) == 0 {
		t.Skip("c17 has full-rank topology; use a bigger circuit")
	}
	d0 := make([]float64, len(c.Gates))
	for _, id := range tp.GateOf {
		d0[id] = 10e-12
	}
	base := pathDelays(tp, d0)
	for _, z := range basis {
		d := append([]float64(nil), d0...)
		for i := range d {
			d[i] += 5e-12 * z[i]
		}
		got := pathDelays(tp, d)
		for j := range got {
			if math.Abs(got[j]-base[j]) > 1e-20 {
				t.Fatalf("path %d delay moved: %g vs %g", j, got[j], base[j])
			}
		}
	}
}

func TestNullspaceExistsOnLargerCircuit(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := BuildTopology(c, 2048)
	if err != nil {
		t.Fatal(err)
	}
	basis := tp.Nullspace(8)
	if len(basis) == 0 {
		t.Fatal("c432 should have a nontrivial topology nullspace")
	}
	// Verify T·z = 0 for each kept vector.
	for _, z := range basis {
		for _, id := range c.Inputs() {
			if z[id] != 0 {
				t.Fatalf("basis vector moves primary input %s", c.Gates[id].Name)
			}
		}
		for _, v := range pathDelays(tp, z) {
			if math.Abs(v) > 1e-8 {
				t.Fatal("basis vector not in nullspace")
			}
		}
	}
}

func TestInitialSizing(t *testing.T) {
	c := gen.C17()
	cells, err := InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		if cells.Cell(g.ID).Size < 1 {
			t.Fatalf("gate %s size %g < 1", g.Name, cells.Cell(g.ID).Size)
		}
		if cells.Cell(g.ID).VDD != lib().Tech.VDDnom || cells.Cell(g.ID).Vth != lib().Tech.Vthnom {
			t.Fatalf("baseline must be nominal VDD/Vth")
		}
	}
}

// matchCells matches desired with a fresh matcher over menus and
// baseline.
func matchCells(t *testing.T, c *ckt.Circuit, menus MatchConfig, baseline charlib.Assignment, desired []float64) []charlib.Cell {
	t.Helper()
	m, err := newMatcher(engine.MustCompile(c), menus, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.match(desired); err != nil {
		t.Fatal(err)
	}
	return matched(m)
}

func TestMatchDelaysRealizesTargets(t *testing.T) {
	c := gen.C17()
	base, err := InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Asked for the delays the baseline already has, the matcher
	// returns the baseline: each gate's baseline cell is its hint and
	// wins the tie.
	d0, err := gateDelays(c, lib(), cellsOf(base), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	if msg := diffCells("theta0 cells", matchCells(t, c, coarseMatch(), base, d0), cellsOf(base)); msg != "" {
		t.Fatal(msg)
	}
	// Asked for the delays of unit-size nominal cells, which no menu
	// holds at coarseMatch's VDDs, it reproduces them approximately.
	nominal, err := charlib.NominalAssignment(c, lib(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gateDelays(c, lib(), cellsOf(nominal), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gateDelays(c, lib(), matchCells(t, c, coarseMatch(), base, want), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		if want[g.ID] <= 0 {
			continue
		}
		rel := math.Abs(got[g.ID]-want[g.ID]) / want[g.ID]
		// The discrete menu limits fidelity; a factor-3 miss would
		// indicate broken matching.
		if rel > 2.0 {
			t.Errorf("gate %s: matched delay %g vs target %g", g.Name, got[g.ID], want[g.ID])
		}
	}
}

func TestMatchDelaysVDDOrdering(t *testing.T) {
	// "only VDD values greater than or equal to successor VDD values
	// are allowed": no gate may have lower VDD than any fanout gate.
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	base, err := InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := gateDelays(c, lib(), cellsOf(base), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb targets to force varied cells.
	rng := stats.NewRNG(99)
	for i := range d0 {
		d0[i] *= 0.5 + rng.Float64()*2
	}
	cells := matchCells(t, c, coarseMatch(), base, d0)
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		for _, s := range g.Fanout {
			if cells[g.ID].VDD < cells[s].VDD {
				t.Fatalf("gate %s (VDD %g) drives %s (VDD %g): level-shifter constraint violated",
					g.Name, cells[g.ID].VDD, c.Gates[s].Name, cells[s].VDD)
			}
		}
	}
}

func TestEvaluateMetrics(t *testing.T) {
	c := gen.C17()
	cells, err := InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	an, err := aserta.AnalyzeCompiled(cc, cells, aserta.Config{Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluateMetrics(cc, an)
	if m.Delay <= 0 || m.Energy <= 0 || m.Area <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// c17 is 3 levels deep; delay must be at least 3 gate delays and
	// below 3 characterization windows.
	if m.Delay < 3e-12 || m.Delay > 2e-9 {
		t.Fatalf("c17 delay = %g s, implausible", m.Delay)
	}
}

func TestOptimizeC17SQP(t *testing.T) {
	c := gen.C17()
	res, err := OptimizeCompiled(engine.MustCompile(c), lib(), Options{
		Match:      coarseMatch(),
		Vectors:    2000,
		Iterations: 3,
		MaxBasis:   4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseAnalysis.U <= 0 {
		t.Fatal("baseline U must be positive")
	}
	// The optimizer must never return something worse than baseline
	// under its own cost.
	if res.Cost > res.History[0]+1e-12 {
		t.Fatalf("final cost %g exceeds initial %g", res.Cost, res.History[0])
	}
	if res.Evaluations < 2 {
		t.Fatal("optimizer did not explore")
	}
	area, energy, delay := res.Ratios()
	if area <= 0 || energy <= 0 || delay <= 0 {
		t.Fatalf("ratios = %g %g %g", area, energy, delay)
	}
}

func TestOptimizeC17Anneal(t *testing.T) {
	c := gen.C17()
	res, err := OptimizeCompiled(engine.MustCompile(c), lib(), Options{
		Match:      coarseMatch(),
		Vectors:    2000,
		Iterations: 2,
		MaxBasis:   4,
		Seed:       2,
		Method:     "anneal",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > res.History[0]+1e-12 {
		t.Fatalf("anneal final cost %g exceeds initial %g", res.Cost, res.History[0])
	}
}

func TestOptimizeUnknownMethod(t *testing.T) {
	c := gen.C17()
	if _, err := OptimizeCompiled(engine.MustCompile(c), lib(), Options{Method: "magic", Vectors: 500}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestOptimizeReducesUnreliabilityOnC432(t *testing.T) {
	if testing.Short() {
		t.Skip("c432 optimization is slow")
	}
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeCompiled(engine.MustCompile(c), lib(), Options{
		Match:      MatchConfig{VDDs: []float64{0.8, 1.2}, Vths: []float64{0.1, 0.3}},
		Vectors:    4000,
		Iterations: 4,
		MaxBasis:   8,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	area, energy, delay := res.Ratios()
	t.Logf("c432: U decrease %.1f%%, ratios A=%.2f E=%.2f T=%.2f, %d evals",
		100*res.UDecrease(), area, energy, delay, res.Evaluations)
	if res.UDecrease() < 0 && res.Cost > res.History[0] {
		t.Fatal("optimization made things worse under its own cost")
	}
}

func TestUDecreaseZeroBase(t *testing.T) {
	r := &Result{BaseAnalysis: &aserta.Analysis{}, OptAnalysis: &aserta.Analysis{}}
	if r.UDecrease() != 0 {
		t.Fatal("zero baseline should yield 0 decrease")
	}
}
