package sertopt

import (
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
)

// TestDepthBandTension pins the model behaviour that motivates the
// whole paper (§2): neither uniform hardening direction is safe.
//
//   - Making every near-PO gate as fast as the menu allows reduces U
//     (small generated glitches) — at an area cost.
//   - Making every near-PO band maximally slow is catastrophic: the
//     huge generated glitches dwarf the attenuation benefit.
//   - But slowing only the depth-1 band (one gate before the POs,
//     which stay fast) exploits attenuation and also reduces U.
//
// If a model change breaks any of these three directions, Table 1
// results become meaningless, so they are asserted here.
func TestDepthBandTension(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	base, err := InitialSizing(c, lib(), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	cfg := aserta.Config{Vectors: 4000, Seed: 1, POLoad: 2e-15}
	an0, err := aserta.AnalyzeCompiled(cc, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := c.DepthFromPO()
	modified := func(mod func(id, d int, cells []charlib.Cell)) float64 {
		cells := cellsOf(base)
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			if d := depth[g.ID]; d >= 0 && d < 4 {
				mod(g.ID, d, cells)
			}
		}
		asg, err := charlib.NewTable(lib()).InternAll(c, cells)
		if err != nil {
			t.Fatal(err)
		}
		an, err := aserta.AnalyzeCompiled(cc, asg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return an.U
	}
	slow := func(id int, cells []charlib.Cell) {
		cells[id].Size = 1
		cells[id].L = 300e-9
		cells[id].VDD = 0.8
		cells[id].Vth = 0.3
	}
	fast := func(id int, cells []charlib.Cell) {
		cells[id].Size = 4
		cells[id].L = 70e-9
		cells[id].VDD = 1.0
		cells[id].Vth = 0.2
	}

	uAllFast := modified(func(id, d int, cells []charlib.Cell) { fast(id, cells) })
	uAllSlow := modified(func(id, d int, cells []charlib.Cell) { slow(id, cells) })
	uSlowD1 := modified(func(id, d int, cells []charlib.Cell) {
		if d == 1 {
			slow(id, cells)
		} else {
			fast(id, cells)
		}
	})

	if uAllFast >= an0.U {
		t.Errorf("all-fast near-PO should reduce U: %g vs base %g", uAllFast, an0.U)
	}
	if uAllSlow <= an0.U {
		t.Errorf("all-slow near-PO should blow up U: %g vs base %g", uAllSlow, an0.U)
	}
	if uSlowD1 >= an0.U {
		t.Errorf("slowing only depth-1 should exploit attenuation: %g vs base %g", uSlowD1, an0.U)
	}
	t.Logf("U: base=%.0f allFast=%.0f (%.0f%%) slowD1=%.0f (%.0f%%) allSlow=%.0f (%.0f%%)",
		an0.U, uAllFast, 100*(1-uAllFast/an0.U), uSlowD1, 100*(1-uSlowD1/an0.U),
		uAllSlow, 100*(1-uAllSlow/an0.U))
}
