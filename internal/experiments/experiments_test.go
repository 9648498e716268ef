package experiments

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/sertopt"
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

// monotone tolerates half a simulator timestep of measurement jitter.
func monotone(points []SweepPoint, increasing bool) bool {
	const eps = 0.5e-12
	for i := 1; i < len(points); i++ {
		if increasing && points[i].Y < points[i-1].Y-eps {
			return false
		}
		if !increasing && points[i].Y > points[i-1].Y+eps {
			return false
		}
	}
	return true
}

func curveByLabel(t *testing.T, curves []Curve, label string) Curve {
	t.Helper()
	for _, c := range curves {
		if c.Label == label {
			return c
		}
	}
	t.Fatalf("curve %q missing", label)
	return Curve{}
}

// Fig. 1 shape: generated glitch width falls with size and VDD, grows
// with channel length and Vth.
func TestFig1Trends(t *testing.T) {
	curves, err := Fig1(devmodel.Tech70nm(), Fig1Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("Fig1 has %d curves, want 4", len(curves))
	}
	if c := curveByLabel(t, curves, "size"); !monotone(c.Points, false) {
		t.Errorf("generated width should fall with size: %+v", c.Points)
	}
	if c := curveByLabel(t, curves, "length"); !monotone(c.Points, true) {
		t.Errorf("generated width should grow with channel length: %+v", c.Points)
	}
	if c := curveByLabel(t, curves, "vdd"); !monotone(c.Points, false) {
		t.Errorf("generated width should fall with VDD: %+v", c.Points)
	}
	if c := curveByLabel(t, curves, "vth"); !monotone(c.Points, true) {
		t.Errorf("generated width should grow with Vth: %+v", c.Points)
	}
	// The weak end of every sweep must show a real glitch (a strong
	// enough gate absorbing the strike entirely — zero width at large
	// sizes — is physical and the paper's point).
	for _, c := range curves {
		weak := c.Points[0]
		if c.Label == "length" || c.Label == "vth" {
			weak = c.Points[len(c.Points)-1]
		}
		if weak.Y <= 0 {
			t.Fatalf("curve %s has no glitch even at its weakest corner", c.Label)
		}
	}
}

// Fig. 2 shape: the opposite tension — propagated width grows with
// size and VDD (less attenuation by a faster gate), falls with length
// and Vth.
func TestFig2Trends(t *testing.T) {
	curves, err := Fig2(devmodel.Tech70nm(), Fig2Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := curveByLabel(t, curves, "size"); !monotone(c.Points, true) {
		t.Errorf("propagated width should grow with size: %+v", c.Points)
	}
	if c := curveByLabel(t, curves, "length"); !monotone(c.Points, false) {
		t.Errorf("propagated width should fall with channel length: %+v", c.Points)
	}
	if c := curveByLabel(t, curves, "vdd"); !monotone(c.Points, true) {
		t.Errorf("propagated width should grow with VDD: %+v", c.Points)
	}
	if c := curveByLabel(t, curves, "vth"); !monotone(c.Points, false) {
		t.Errorf("propagated width should fall with Vth: %+v", c.Points)
	}
}

// TestGoldenWeightsByFlux checks that the golden simulator weighs each
// gate by ASERTA's Eq. 3 Z_i, the cell's flux weight, which has no
// channel-length term: on c17 with every other gate at L = 300 nm,
// Ui[g] must equal FluxWeight·MeanPOWidth[g]/1e-12 bit for bit, and a
// long-channel gate whose strikes reach a PO must read less than its
// area would weigh it.
func TestGoldenWeightsByFlux(t *testing.T) {
	c := gen.C17()
	cells, err := sertopt.InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for i, g := range c.Gates {
		if g.Type != ckt.Input && i%2 == 0 {
			cell := cells.Cell(i)
			cell.L = 300e-9
			if cells.IDs[i], err = cells.T.Intern(cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	tech := devmodel.Tech70nm()
	res, err := GoldenUnreliability(tech, c, cells, GoldenConfig{Vectors: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		cell := cells.Cell(g.ID)
		want := cell.FluxWeight() * res.MeanPOWidth[g.ID] / 1e-12
		if math.Float64bits(res.Ui[g.ID]) != math.Float64bits(want) {
			t.Errorf("gate %s (L %g): Ui %.17g, want FluxWeight·width %.17g", g.Name, cell.L, res.Ui[g.ID], want)
		}
		if cell.L != tech.Lmin && res.MeanPOWidth[g.ID] > 0 {
			long++
			if byArea := cell.Area(tech) * res.MeanPOWidth[g.ID] / 1e-12; res.Ui[g.ID] >= byArea {
				t.Errorf("gate %s: Ui %g not below its area weighting %g", g.Name, res.Ui[g.ID], byArea)
			}
		}
	}
	if long == 0 {
		t.Fatal("no long-channel gate's strike reached a PO, so the check is vacuous")
	}
}

func TestGoldenUnreliabilityC17(t *testing.T) {
	c := gen.C17()
	cells, err := sertopt.InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GoldenUnreliability(devmodel.Tech70nm(), c, cells, GoldenConfig{
		Vectors: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 4*6 {
		t.Fatalf("runs = %d, want 24 (4 vectors x 6 gates)", res.Runs)
	}
	anyPositive := false
	for _, u := range res.Ui {
		if u < 0 {
			t.Fatal("negative golden Ui")
		}
		if u > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Fatal("no gate produced any PO glitch; golden path is broken")
	}
}

func TestGatesWithinLevels(t *testing.T) {
	c := gen.C17()
	// Depth 0: only the PO gates (22, 23).
	if got := GatesWithinLevels(c, 0); len(got) != 2 {
		t.Fatalf("depth 0 gates = %d, want 2", len(got))
	}
	// Depth 5 covers all 6 gates.
	if got := GatesWithinLevels(c, 5); len(got) != 6 {
		t.Fatalf("depth 5 gates = %d, want 6", len(got))
	}
}

// Fig. 3 on c17: ASERTA and the golden simulator must correlate
// positively (the paper reports 0.96 on c432 and 0.9 suite average;
// the tiny c17 with few gates is a smoke-level check of the pipeline).
func TestFig3C17Correlation(t *testing.T) {
	c := gen.C17()
	res, err := Fig3(c, lib(), Fig3Config{
		Depth:   5,
		Vectors: 4000,
		Seed:    2,
		Golden:  GoldenConfig{Vectors: 8, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	if math.IsNaN(res.Correlation) {
		t.Fatal("correlation is NaN")
	}
	t.Logf("c17 ASERTA/golden correlation = %.3f (%d golden runs)", res.Correlation, res.GoldenRuns)
	if res.Correlation < 0.3 {
		t.Fatalf("correlation %.3f too low; estimators disagree badly", res.Correlation)
	}
}

func TestTable1SingleRowC17(t *testing.T) {
	// Full Table 1 rows use ISCAS profiles; c17 exercises the whole
	// row pipeline (optimize + ASERTA-50 + golden) quickly.
	row, err := Table1Run(Table1Spec{
		Circuit: "c17",
		VDDs:    []float64{0.8, 1.0},
		Vths:    []float64{0.2, 0.3},
	}, lib(), Table1Config{
		Options: sertopt.Options{
			Vectors:    2000,
			Iterations: 2,
			MaxBasis:   4,
			Seed:       4,
		},
		GoldenVectors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Circuit != "c17" || !row.HasGolden {
		t.Fatalf("row = %+v", row)
	}
	if row.AreaRatio <= 0 || row.EnergyRatio <= 0 || row.DelayRatio <= 0 {
		t.Fatalf("ratios = %+v", row)
	}
	if math.Abs(row.UDecreaseASERTA) > 1 {
		t.Fatalf("U decrease out of range: %g", row.UDecreaseASERTA)
	}
	t.Logf("c17 row: dU=%.1f%% dU50=%.1f%% dUgold=%.1f%% A=%.2f E=%.2f T=%.2f",
		100*row.UDecreaseASERTA, 100*row.UDecreaseASERTA50, 100*row.UDecreaseGolden,
		row.AreaRatio, row.EnergyRatio, row.DelayRatio)
}

// TestHardeningComparison checks the §1 comparison's rows on c17: their
// order, the baseline's unit ratios, TMR's overhead and voter share,
// the sertopt row against OptimizeCompiled run on its own, and that a
// second call returns the same rows. Every row's U is taken at the
// 300 ps default clock: the sertopt row's is an analysis of the
// optimizer's winner at that clock, not the optimizer's own U at 1.2x
// the critical path, and its decrease is against the baseline row's U.
func TestHardeningComparison(t *testing.T) {
	opts := sertopt.Options{
		Match:      sertopt.MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
		Vectors:    400,
		Iterations: 1,
		Seed:       1,
	}
	rows, err := HardeningComparison("c17", lib(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for i, want := range []string{"baseline", "tmr", "sertopt"} {
		if rows[i].Scheme != want {
			t.Fatalf("row %d is %q, want %q", i, rows[i].Scheme, want)
		}
	}
	base, tmr, opt := rows[0], rows[1], rows[2]
	if base.UDecrease != 0 || base.AreaRatio != 1 || base.EnergyRatio != 1 || base.DelayRatio != 1 {
		t.Errorf("baseline row %+v, want a 0 decrease and unit ratios", base)
	}
	if tmr.AreaRatio <= 2 || tmr.EnergyRatio <= 2 {
		t.Errorf("TMR area %.2fx, energy %.2fx; want both above 2x", tmr.AreaRatio, tmr.EnergyRatio)
	}
	if tmr.VoterShare <= 0 || tmr.VoterShare > 1 {
		t.Errorf("TMR voter share %g, want (0, 1]", tmr.VoterShare)
	}
	if tmr.Gates < 3*base.Gates {
		t.Errorf("TMR has %d gates, want at least 3x the baseline's %d", tmr.Gates, base.Gates)
	}

	cc := engine.MustCompile(gen.C17())
	res, err := sertopt.OptimizeCompiled(cc, lib(), opts)
	if err != nil {
		t.Fatal(err)
	}
	acfg := aserta.Config{Vectors: opts.Vectors, Seed: opts.Seed, POLoad: engine.DefaultPOLoad}
	anBase, err := aserta.AnalyzeCompiled(cc, res.Baseline, acfg)
	if err != nil {
		t.Fatal(err)
	}
	anOpt, err := aserta.AnalyzeCompiled(cc, res.Optimized, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if clk := res.OptAnalysis.Config.ClockPeriod; clk == anOpt.Config.ClockPeriod {
		t.Fatalf("optimizer clock %g is the default, so the rows' one clock goes unchecked", clk)
	}
	if base.U != anBase.U {
		t.Errorf("baseline row U %v, want %v at the default clock", base.U, anBase.U)
	}
	a, e, d := res.Ratios()
	if wantDec := 1 - anOpt.U/anBase.U; opt.U != anOpt.U || opt.UDecrease != wantDec || opt.AreaRatio != a || opt.EnergyRatio != e || opt.DelayRatio != d {
		t.Errorf("sertopt row %+v, want U %v and decrease %v at the default clock, ratios %v %v %v from OptimizeCompiled",
			opt, anOpt.U, wantDec, a, e, d)
	}

	again, err := HardeningComparison("c17", lib(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rows) {
		t.Errorf("second call returned %+v, first %+v", again, rows)
	}
	t.Logf("c17: baseline U %.1f; TMR area %.1fx energy %.1fx voter share %.2f; sertopt U %.1f (%.1f%%)",
		base.U, tmr.AreaRatio, tmr.EnergyRatio, tmr.VoterShare, opt.U, 100*opt.UDecrease)
}
