package sertopt

// Opt-in calibration runs (not part of the regular suite): they take
// minutes and exist to re-measure the optimizer's reach when the
// device model or search is changed. Enable with CALIBRATE=1.

import (
	"os"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
)

func calibrationRun(t *testing.T, lib *charlib.Library, step float64, iters, basis int) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeCompiled(engine.MustCompile(c), lib, Options{
		Match:      MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
		Vectors:    10000,
		Iterations: iters,
		MaxBasis:   basis,
		Seed:       1,
		StepInit:   step,
	})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		if res.Optimized.Cell(g.ID) != res.Baseline.Cell(g.ID) {
			changed++
		}
	}
	a, e, d := res.Ratios()
	t.Logf("c432: dU=%.1f%% changed=%d evals=%d A=%.2f E=%.2f T=%.2f",
		100*res.UDecrease(), changed, res.Evaluations, a, e, d)
}

func TestCalibrateCoarseGrid(t *testing.T) {
	if os.Getenv("CALIBRATE") == "" {
		t.Skip("set CALIBRATE=1 for the coarse-grid calibration run")
	}
	calibrationRun(t, lib(), 20e-12, 16, 48)
}

func TestCalibrateFullGrid(t *testing.T) {
	if os.Getenv("CALIBRATE") == "" {
		t.Skip("set CALIBRATE=1 for the full-grid calibration run (minutes)")
	}
	full := charlib.NewLibrary(devmodel.Tech70nm(), charlib.DefaultGrid())
	calibrationRun(t, full, 8e-12, 16, 48)
}
