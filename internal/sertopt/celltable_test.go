package sertopt_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/seq"
	"repro/internal/sertopt"
	"repro/internal/spice"
	"repro/internal/stats"
	"repro/internal/strike"
)

// TestCellTableMatchesReference holds the table-backed sizing and
// source enumeration to the per-edge references, which read the
// library's Props once per fanout edge: InitialSizing must give
// refInitialSizing's cells, and charlib.Table's loads and flux weights
// (all of strike.EnumerateSources where the library's tables are
// characterized) must equal refEnumerateSources' bit for bit. It runs
// every ISCAS-85 profile and the s27, s298 and s1196 frames on the
// coarse and the default grid, under the sized baseline and under a
// random assignment whose every gate draws its size, length, VDD and
// Vth from the grid's axes, which interns hundreds of distinct cells.
// The default grid is characterized only for c17 (NAND2 alone), so
// elsewhere on it the check stops at what the table itself computes:
// loads and flux weights.
func TestCellTableMatchesReference(t *testing.T) {
	type circuit struct {
		name string
		c    *ckt.Circuit
	}
	var circuits []circuit
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, circuit{name, c})
	}
	for _, name := range []string{"s27", "s298", "s1196"} {
		c, err := gen.ISCAS89(name)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := seq.BuildFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, circuit{name + "#frame", fr.Comb})
	}
	grids := []struct {
		name string
		lib  *charlib.Library
		// sources reports whether a circuit's classes may be
		// characterized for the full EnumerateSources check.
		sources func(name string) bool
	}{
		{"coarse", sertopt.CoarseTestLib(), func(string) bool { return true }},
		{"default", charlib.NewLibrary(devmodel.Tech70nm(), charlib.DefaultGrid()), func(name string) bool { return name == "c17" }},
	}
	const poLoad = engine.DefaultPOLoad
	for _, grid := range grids {
		distinct := make(map[charlib.Cell]bool)
		for ci, cir := range circuits {
			label := grid.name + "/" + cir.name
			c := cir.c
			sized, err := sertopt.InitialSizing(c, grid.lib, poLoad)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := sertopt.RefInitialSizing(c, grid.lib, poLoad)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			for id := range want {
				if sized.Cell(id) != want[id] {
					t.Fatalf("%s: InitialSizing gate %d = %+v, reference %+v", label, id, sized.Cell(id), want[id])
				}
			}
			random := randomAssignment(c, grid.lib, stats.NewRNG(uint64(ci+1)))
			for _, g := range c.Gates {
				if g.Type != ckt.Input {
					distinct[random[g.ID]] = true
				}
			}
			randomAsg, err := charlib.NewTable(grid.lib).InternAll(c, random)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cc := engine.MustCompile(c)
			for _, a := range []struct {
				name string
				asg  charlib.Assignment
			}{{"sized", sized}, {"random", randomAsg}} {
				what := label + "/" + a.name
				cells := sertopt.CellsOf(a.asg)
				if grid.sources(cir.name) {
					got, err := strike.EnumerateSources(cc, a.asg, poLoad)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					ref, err := sertopt.RefEnumerateSources(cc, grid.lib, cells, poLoad)
					if err != nil {
						t.Fatalf("%s: reference: %v", what, err)
					}
					for _, f := range []struct {
						field     string
						got, want []float64
					}{
						{"Loads", got.Loads, ref.Loads},
						{"Delays", got.Delays, ref.Delays},
						{"GenWidth", got.GenWidth, ref.GenWidth},
						{"Flux", got.Flux, ref.Flux},
					} {
						if msg := diffBits(what+" "+f.field, f.got, f.want); msg != "" {
							t.Fatal(msg)
						}
					}
					continue
				}
				loads := make([]float64, len(c.Gates))
				a.asg.T.Loads(c, a.asg.IDs, poLoad, loads)
				ref, err := sertopt.RefGateLoads(c, grid.lib, cells, poLoad)
				if err != nil {
					t.Fatalf("%s: reference: %v", what, err)
				}
				if msg := diffBits(what+" Loads", loads, ref); msg != "" {
					t.Fatal(msg)
				}
				for _, g := range c.Gates {
					if g.Type == ckt.Input {
						continue
					}
					got, want := a.asg.T.Props(a.asg.IDs[g.ID]).FluxWeight, cells[g.ID].FluxWeight()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: gate %s flux %.17g, want %.17g", what, g.Name, got, want)
					}
				}
			}
		}
		if len(distinct) < 200 {
			t.Errorf("%s: random assignments interned %d distinct cells, want hundreds", grid.name, len(distinct))
		}
		t.Logf("%s grid: %d circuits, %d distinct random cells", grid.name, len(circuits), len(distinct))
	}
}

// randomAssignment gives every logic gate of c a cell of its class
// whose size, length, VDD and Vth are drawn from lib's grid axes.
func randomAssignment(c *ckt.Circuit, lib *charlib.Library, rng *stats.RNG) []charlib.Cell {
	g := lib.Grid
	pick := func(axis []float64) float64 { return axis[rng.Intn(len(axis))] }
	cells := make([]charlib.Cell, len(c.Gates))
	for _, gate := range c.Gates {
		if gate.Type == ckt.Input {
			continue
		}
		cells[gate.ID] = charlib.Cell{Type: gate.Type, Fanin: len(gate.Fanin),
			Params: spice.Params{Size: pick(g.Sizes), L: pick(g.Lengths), VDD: pick(g.VDDs), Vth: pick(g.Vths)}}
	}
	return cells
}

// diffBits describes the first entry where got and want differ in
// their bits ("" when none does).
func diffBits(name string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d] = %.17g, want %.17g", name, i, got[i], want[i])
		}
	}
	return ""
}
