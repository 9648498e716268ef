package aserta

import (
	"math"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
)

// qlib caches a charge-axis library (characterization is simulation-
// backed, so share it across the spectrum tests).
var (
	qlibOnce sync.Once
	qlibVal  *charlib.Library
)

func qlib() *charlib.Library {
	qlibOnce.Do(func() {
		g := charlib.CoarseGrid()
		g.Charges = []float64{4e-15, 16e-15, 48e-15}
		qlibVal = charlib.NewLibrary(devmodel.Tech70nm(), g)
	})
	return qlibVal
}

func TestExponentialSpectrum(t *testing.T) {
	sp := ExponentialSpectrum(4e-15, 48e-15, 10e-15, 5)
	if len(sp) != 5 {
		t.Fatalf("spectrum size = %d", len(sp))
	}
	total := 0.0
	for i, cw := range sp {
		total += cw.Weight
		if i > 0 {
			if sp[i].Q <= sp[i-1].Q {
				t.Fatal("charges must increase")
			}
			if sp[i].Weight >= sp[i-1].Weight {
				t.Fatal("exponential weights must decrease with charge")
			}
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("weights sum to %g, want 1", total)
	}
	if got := ExponentialSpectrum(1e-15, 2e-15, 1e-15, 0); len(got) != 2 {
		t.Fatalf("minimum spectrum size should be 2, got %d", len(got))
	}
}

func TestGlitchGenAtChargeTrend(t *testing.T) {
	l := qlib()
	cell := charlib.Cell{Type: gen.C17().Gates[5].Type, Fanin: 2}
	cell.Size = 1
	cell.L = 70e-9
	cell.VDD = 1.0
	cell.Vth = 0.2
	load := 0.5e-15
	w4, err := l.GlitchGenAt(cell, load, 4e-15)
	if err != nil {
		t.Fatal(err)
	}
	w48, err := l.GlitchGenAt(cell, load, 48e-15)
	if err != nil {
		t.Fatal(err)
	}
	if w48 <= w4 {
		t.Fatalf("more charge must give a wider glitch: %g vs %g", w4, w48)
	}
}

func TestGlitchGenAtRequiresChargeAxis(t *testing.T) {
	l := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	if l.HasChargeAxis() {
		t.Fatal("coarse grid should not have a charge axis")
	}
	cell := charlib.Cell{Type: gen.C17().Gates[5].Type, Fanin: 2}
	cell.Size = 1
	cell.L = 70e-9
	cell.VDD = 1.0
	cell.Vth = 0.2
	if _, err := l.GlitchGenAt(cell, 1e-15, 8e-15); err == nil {
		t.Fatal("charge query without charge axis must error")
	}
}

func TestSpectrumU(t *testing.T) {
	l := qlib()
	c := gen.C17()
	cells := nominal(t, c, l)
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := ExponentialSpectrum(4e-15, 48e-15, 10e-15, 3)
	total, per, err := an.SpectrumU(l, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 3 {
		t.Fatalf("perCharge = %d entries", len(per))
	}
	if total <= 0 {
		t.Fatal("spectrum U must be positive")
	}
	// U must be monotone in charge.
	for i := 1; i < len(per); i++ {
		if per[i] < per[i-1] {
			t.Fatalf("U must not decrease with charge: %v", per)
		}
	}
	// Weighted total must lie within the per-charge range.
	if total < per[0] || total > per[len(per)-1] {
		t.Fatalf("total %g outside per-charge range %v", total, per)
	}
}

func TestSpectrumUErrors(t *testing.T) {
	l := qlib()
	c := gen.C17()
	cells := nominal(t, c, l)
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := an.SpectrumU(l, nil); err == nil {
		t.Fatal("empty spectrum accepted")
	}
	plain := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	if _, _, err := an.SpectrumU(plain, ExponentialSpectrum(4e-15, 48e-15, 1e-14, 2)); err == nil {
		t.Fatal("library without charge axis accepted")
	}
}

func TestRecomputeU(t *testing.T) {
	l := qlib()
	c := gen.C17()
	cells := nominal(t, c, l)
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same delays -> same U.
	u, err := an.RecomputeU(an.Delays)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-an.U)/an.U > 1e-9 {
		t.Fatalf("RecomputeU at own delays = %g, want %g", u, an.U)
	}
	// Slowing every gate 4x increases attenuation, so U (with gen
	// widths held fixed) must not increase.
	slow := make([]float64, len(an.Delays))
	for i, d := range an.Delays {
		slow[i] = 4 * d
	}
	u4, err := an.RecomputeU(slow)
	if err != nil {
		t.Fatal(err)
	}
	if u4 > u {
		t.Fatalf("4x delays should not increase U at fixed gen widths: %g vs %g", u4, u)
	}
	// The analysis object must be restored.
	if an.Delays[5] == slow[5] && slow[5] != 0 {
		t.Fatal("RecomputeU mutated the analysis delays")
	}
	if math.Abs(an.U-u) > 1e-9*u {
		t.Fatal("RecomputeU corrupted stored U")
	}
}
