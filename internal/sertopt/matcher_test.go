package sertopt

import (
	"math"
	"slices"
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// wantVisits returns how many logic gates a walk from prevDesired, whose
// match left the cell IDs prevIDs, to desired, whose match left ids,
// must re-examine: the gates whose desired delay's bits changed and the
// gates with a fanout whose cell changed. Any other gate's decision
// inputs are unchanged, so examining it is wasted work.
func wantVisits(c *ckt.Circuit, prevDesired, desired []float64, prevIDs, ids []int32) int {
	n := 0
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		visit := math.Float64bits(prevDesired[g.ID]) != math.Float64bits(desired[g.ID])
		for _, s := range g.Fanout {
			visit = visit || prevIDs[s] != ids[s]
		}
		if visit {
			n++
		}
	}
	return n
}

// logicGates returns the IDs of c's gates that are not primary inputs.
func logicGates(c *ckt.Circuit) []int {
	var ids []int
	for _, g := range c.Gates {
		if g.Type != ckt.Input {
			ids = append(ids, g.ID)
		}
	}
	return ids
}

// TestMatcherVisits pins the cost of the matcher's walk, which every
// equality test would pass at a full walk too: the first call visits
// every logic gate, the same vector again visits none, and changing one
// gate's desired delay visits that gate, and its fanins only when the
// gate's cell changed (exactly the gates wantVisits names).
func TestMatcherVisits(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			s := newEvalSetup(t, name)
			c := s.cc.Circuit()
			logic := logicGates(c)
			m := s.matcher(t)
			walk := func(desired []float64) int {
				t.Helper()
				before := m.visits
				if err := m.match(desired); err != nil {
					t.Fatal(err)
				}
				return m.visits - before
			}
			if v := walk(s.d0); v != len(logic) {
				t.Fatalf("first call visited %d gates, want every logic gate (%d)", v, len(logic))
			}
			if v := walk(s.d0); v != 0 {
				t.Fatalf("the same vector again visited %d gates, want 0", v)
			}
			kept, moved := 0, 0
			for _, id := range logic {
				for _, scale := range []float64{1 + 1e-9, 4, 0.1} {
					d := slices.Clone(s.d0)
					d[id] *= scale
					prev := slices.Clone(m.ids)
					v := walk(d)
					if m.ids[id] == prev[id] {
						kept++
						if v != 1 {
							t.Fatalf("gate %d kept its cell at %g× its delay, but the walk visited %d gates, want 1", id, scale, v)
						}
					} else {
						moved++
						fanins := 0
						for _, f := range c.Gates[id].Fanin {
							if c.Gates[f].Type != ckt.Input {
								fanins++
							}
						}
						if v < 1+fanins {
							t.Fatalf("gate %d changed its cell at %g× its delay, but the walk visited %d gates, fewer than it and its %d logic fanins", id, scale, v, fanins)
						}
					}
					if want := wantVisits(c, s.d0, d, prev, m.ids); v != want {
						t.Fatalf("gate %d at %g× its delay: the walk visited %d gates, want %d", id, scale, v, want)
					}
					prev = slices.Clone(m.ids)
					if v, want := walk(s.d0), wantVisits(c, d, s.d0, prev, m.ids); v != want {
						t.Fatalf("gate %d back from %g×: the walk visited %d gates, want %d", id, scale, v, want)
					}
				}
			}
			if kept == 0 || moved == 0 {
				t.Fatalf("%d single-gate changes kept their cell and %d changed it; the test needs both", kept, moved)
			}
		})
	}
}

// FuzzMatcherIncremental holds one long-lived matcher to a fresh one on
// generated combinational netlists, drawn as FuzzTopologyNullspace
// draws them, over a fuzzed sequence of desired-delay vectors shaped
// like the optimizer's: θ probes on a few gates and their reverts,
// dense random moves, and moves of only the gates next to the POs,
// which change upstream loads and successor VDDs while those gates'
// desired delays stay put. After every step the long-lived matcher's
// cell IDs, loads, delays, glitch widths and flux weights must equal
// the fresh matcher's and refEnumerateSources' on its cells, bit for
// bit, and its walk must visit exactly the gates wantVisits names.
func FuzzMatcherIncremental(f *testing.F) {
	f.Add(uint8(10), uint8(5), uint8(54), uint8(3), uint8(4), uint64(1), uint64(7), uint8(12))
	f.Add(uint8(14), uint8(9), uint8(190), uint8(12), uint8(3), uint64(3), uint64(11), uint8(20))
	f.Add(uint8(9), uint8(2), uint8(66), uint8(9), uint8(5), uint64(7), uint64(5), uint8(16))
	f.Fuzz(func(t *testing.T, pis, pos, gates, depth, fanin uint8, seed, walkSeed uint64, steps uint8) {
		p := gen.Profile{
			Name:     "fuzz",
			PIs:      2 + int(pis%16),
			POs:      1 + int(pos%12),
			Depth:    int(depth % 24),
			MaxFanin: int(fanin % 7),
			Seed:     seed,
		}
		p.Gates = p.POs + int(gates)
		c, err := gen.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		cc, err := engine.Compile(c)
		if err != nil {
			t.Skip(err)
		}
		base, err := InitialSizing(c, lib(), engine.DefaultPOLoad)
		if err != nil {
			t.Fatal(err)
		}
		d0, err := gateDelays(c, lib(), cellsOf(base), engine.DefaultPOLoad)
		if err != nil {
			t.Fatal(err)
		}
		s := &evalSetup{
			cc:    cc,
			menus: MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
			base:  base,
			d0:    d0,
		}
		logic := logicGates(c)
		m := s.matcher(t)
		var last []float64
		check := func(label string, desired []float64) {
			t.Helper()
			prevIDs := slices.Clone(m.ids)
			before := m.visits
			err := m.match(desired)
			fresh := s.matcher(t)
			if ferr := fresh.match(desired); ferr != nil || err != nil {
				t.Fatalf("%s: long-lived matcher: %v; fresh matcher: %v", label, err, ferr)
			}
			want := len(logic)
			if last != nil {
				want = wantVisits(c, last, desired, prevIDs, m.ids)
			}
			if v := m.visits - before; v != want {
				t.Fatalf("%s: the walk visited %d gates, want %d", label, v, want)
			}
			last = desired
			cells := matched(fresh)
			if msg := diffCells(label+" cells", matched(m), cells); msg != "" {
				t.Fatal(msg)
			}
			src, err := refEnumerateSources(cc, lib(), cells, engine.DefaultPOLoad)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				field            string
				got, fresh, want []float64
			}{
				{"Loads", m.src.Loads, fresh.src.Loads, src.Loads},
				{"Delays", m.src.Delays, fresh.src.Delays, src.Delays},
				{"GenWidth", m.src.GenWidth, fresh.src.GenWidth, src.GenWidth},
				{"Flux", m.src.Flux, fresh.src.Flux, src.Flux},
			} {
				if msg := diffFloats(label+" fresh "+f.field, f.fresh, f.want); msg != "" {
					t.Fatal(msg)
				}
				if msg := diffFloats(label+" "+f.field, f.got, f.want); msg != "" {
					t.Fatal(msg)
				}
			}
		}
		clamp := func(d []float64) []float64 {
			for i := range d {
				d[i] = clampDelay(d[i])
			}
			return d
		}
		rng := stats.NewRNG(walkSeed)
		cur := clamp(slices.Clone(d0))
		check("theta0", cur)
		for step := 0; step < int(steps%32); step++ {
			switch rng.Intn(4) {
			case 0:
				// A θ probe moves a few gates, as a sparse nullspace
				// direction does; it is reverted or accepted.
				probe := slices.Clone(cur)
				for k := 1 + rng.Intn(4); k > 0; k-- {
					probe[logic[rng.Intn(len(logic))]] += (2*rng.Float64() - 1) * 40e-12
				}
				check("probe", clamp(probe))
				if rng.Intn(2) == 0 {
					check("revert", cur)
				} else {
					cur = probe
				}
			case 1:
				cur = clamp(s.scrambled(rng, cur, -1))
				check("dense", cur)
			case 2:
				cur = clamp(s.scrambled(rng, cur, 1))
				check("po-band", cur)
			default:
				cur = clamp(slices.Clone(d0))
				check("theta0-again", cur)
			}
		}
	})
}
