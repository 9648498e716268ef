package sertopt

import (
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
)

// TestGradientProbeIncrementalMatchesFull exercises RecomputeU exactly
// the way gradientSeed does — a baseline SERTOPT analysis probed with
// single-gate delay bumps — and asserts the incremental delta
// evaluation equals a full recomputation bit for bit.
func TestGradientProbeIncrementalMatchesFull(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	baseline, err := InitialSizing(c, lib, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	base, err := aserta.AnalyzeCompiled(engine.MustCompile(c), baseline, aserta.Config{
		Vectors: 2000,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d0, err := gateDelays(c, lib, cellsOf(baseline), 2e-15)
	if err != nil {
		t.Fatal(err)
	}

	const h = 2e-12
	depth := c.DepthFromPO()
	probed := 0
	for _, g := range c.Gates {
		if depth[g.ID] < 0 || depth[g.ID] > 4 || g.Type == ckt.Input {
			continue
		}
		d := append([]float64(nil), d0...)
		d[g.ID] += h
		inc, err := base.RecomputeU(d)
		if err != nil {
			t.Fatal(err)
		}
		full, err := base.RecomputeUFull(d)
		if err != nil {
			t.Fatal(err)
		}
		if inc != full {
			t.Errorf("gate %s: incremental U = %.17g, full U = %.17g", g.Name, inc, full)
		}
		probed++
	}
	if probed < 20 {
		t.Fatalf("only %d gates probed; want a meaningful sample", probed)
	}
}
