package sertopt

import (
	"fmt"
	"math"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/strike"
)

// MatchConfig holds the designer-chosen voltage menus the delay
// matcher draws cells from (paper Table 1, columns 2–3). The rest of
// the search is fixed by the run's baseline: every gate's baseline
// cell is its hint, sizes are capped at the baseline's largest ("the
// maximum gate size used was the same as that for the baseline
// circuits"), and primary outputs drive the engine.DefaultPOLoad
// latch load.
type MatchConfig struct {
	VDDs []float64
	Vths []float64
}

// matcher is the §4 delay matcher over one run's cell table, the
// baseline's. It adds every cell the run can assign to that table:
// each gate class's menu, built once per class, beside each gate's
// hint, its baseline cell, so every cell's properties are read once
// per run. The matcher keeps each gate's decision together with the
// inputs that fixed it — the desired delay, the load and the highest
// successor VDD, by their bits — and on the next call re-decides only
// the gates where one of them changed: the chosen cell, its delay and
// its generated glitch width depend on nothing else.
type matcher struct {
	cc  *engine.CompiledCircuit
	tab *charlib.Table
	// hint[g] is gate g's hint cell (-1 for primary inputs) and menu[g]
	// its class menu: the candidates of gate g, in the order they are
	// considered. hint is the baseline's cell-ID vector.
	hint []int32
	menu [][]int32
	// ids[g] is gate g's cell ID (-1 for primary inputs, and before
	// the gate's first decision).
	ids []int32
	// src holds what strike.EnumerateSources derives from ids.
	src strike.Sources
	// key[g] holds the inputs ids[g] was decided under, once ids[g] is
	// set.
	key      []matchKey
	assigned []bool
}

// matchKey is the bits of one gate's decision inputs.
type matchKey struct{ desired, load, succVDD uint64 }

// newMatcher returns a matcher for one run: menus from cfg, and
// baseline as every gate's hint and size cap. The menus go into the
// baseline's table, which already holds every hint, so a property read
// that fails (only ever for a whole gate class) failed in the sizing
// that made the baseline.
func newMatcher(cc *engine.CompiledCircuit, cfg MatchConfig, baseline charlib.Assignment) (*matcher, error) {
	c := cc.Circuit()
	lib := baseline.T.Library()
	if len(cfg.VDDs) == 0 {
		cfg.VDDs = []float64{lib.Tech.VDDnom}
	}
	if len(cfg.Vths) == 0 {
		cfg.Vths = []float64{lib.Tech.Vthnom}
	}
	// Paper: "The maximum gate size used was the same as that for the
	// baseline circuits."
	maxSize := 1.0
	for _, g := range c.Gates {
		if s := baseline.Cell(g.ID).Size; s > maxSize {
			maxSize = s
		}
	}
	n := len(c.Gates)
	m := &matcher{
		cc:   cc,
		tab:  baseline.T,
		hint: baseline.IDs,
		menu: make([][]int32, n),
		ids:  make([]int32, n),
		src: strike.Sources{
			Loads:    make([]float64, n),
			Delays:   make([]float64, n),
			GenWidth: make([]float64, n),
			Flux:     make([]float64, n),
		},
		key:      make([]matchKey, n),
		assigned: make([]bool, n),
	}
	menus := make(map[charlib.Class][]int32)
	for _, g := range c.Gates {
		m.ids[g.ID] = -1
		if g.Type == ckt.Input {
			continue
		}
		cl := charlib.ClassOf(g)
		menu, ok := menus[cl]
		if !ok {
			for _, cell := range lib.Menu(cl, cfg.VDDs, cfg.Vths, maxSize) {
				id, err := m.tab.Intern(cell)
				if err != nil {
					return nil, err
				}
				menu = append(menu, id)
			}
			menus[cl] = menu
		}
		m.menu[g.ID] = menu
	}
	return m, nil
}

// match implements the paper's §4 parameter determination: "To find
// the circuit parameters ... SERTOPT traverses the circuit from POs to
// PIs in reverse topological order. The capacitive loads of the gates
// at the POs are known ... the best matching sizes, lengths, VDDs,
// Vths available in the SPICE library that yield delays closest to
// the assigned delays are found ... The only constraint is that only
// VDD values greater than or equal to successor VDD values are
// allowed" (avoiding level shifters).
//
// It assigns every gate the cell whose delay under its load comes
// closest to desired (indexed by gate ID, PI entries ignored), walking
// the handle's reverse topological order. The gate type and fanin of
// each cell are fixed by the netlist; only the four design variables
// change. Afterwards src matches what strike.EnumerateSources derives
// from the cells, primary-input loads included.
func (m *matcher) match(desired []float64) error {
	c := m.cc.Circuit()
	clear(m.assigned)
	for _, id := range m.cc.ReverseTopoOrder() {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		load, succVDD, err := m.load(g)
		if err != nil {
			return err
		}
		m.src.Loads[id] = load
		k := matchKey{math.Float64bits(desired[id]), math.Float64bits(load), math.Float64bits(succVDD)}
		if m.ids[id] < 0 || m.key[id] != k {
			if err := m.decide(g, desired[id], load, succVDD); err != nil {
				return err
			}
			m.key[id] = k
		}
		m.assigned[id] = true
	}
	for _, id := range c.Inputs() {
		load, _, err := m.load(c.Gates[id])
		if err != nil {
			return err
		}
		m.src.Loads[id] = load
	}
	return nil
}

// load returns gate g's output load and the highest VDD among its
// fanout cells. The load is the fanout cells' input capacitance summed
// in fanout order, plus the latch load on a PO: charlib.Table.Loads'
// summation. Every fanout gate is later in topological order, hence
// already assigned in the reverse walk.
func (m *matcher) load(g *ckt.Gate) (load, succVDD float64, err error) {
	for _, s := range g.Fanout {
		if !m.assigned[s] {
			return 0, 0, fmt.Errorf("sertopt: fanout %s of %s not yet assigned (netlist not a DAG?)", m.cc.Circuit().Gates[s].Name, g.Name)
		}
		id := m.ids[s]
		load += m.tab.Props(id).InputCap
		if vdd := m.tab.Cell(id).VDD; vdd > succVDD {
			succVDD = vdd
		}
	}
	if g.PO {
		load += engine.DefaultPOLoad
	}
	return load, succVDD, nil
}

// decide picks gate g's cell: its hint first, then its class menu,
// keeping the first candidate with the smallest delay error, so a hint
// wins ties. No cell may have a lower VDD than a successor (no level
// shifters).
func (m *matcher) decide(g *ckt.Gate, desired, load, succVDD float64) error {
	lib := m.tab.Library()
	best := int32(-1)
	bestErr, bestDelay := -1.0, 0.0
	consider := func(id int32) error {
		cell := m.tab.Cell(id)
		if cell.VDD < succVDD {
			return nil // no low-VDD gate may drive a high-VDD gate
		}
		d, err := lib.Delay(cell, load)
		if err != nil {
			return err
		}
		e := math.Abs(d - desired)
		if bestErr < 0 || e < bestErr {
			best, bestErr, bestDelay = id, e, d
		}
		return nil
	}
	if err := consider(m.hint[g.ID]); err != nil {
		return err
	}
	for _, id := range m.menu[g.ID] {
		if err := consider(id); err != nil {
			return err
		}
	}
	if bestErr < 0 {
		return fmt.Errorf("sertopt: no feasible cell for gate %s (succ VDD %g exceeds menu)", g.Name, succVDD)
	}
	cell := m.tab.Cell(best)
	w, err := lib.GlitchGen(cell, load)
	if err != nil {
		return fmt.Errorf("sertopt: glitch gen of %s: %v", g.Name, err)
	}
	m.ids[g.ID] = best
	m.src.Delays[g.ID] = bestDelay
	m.src.GenWidth[g.ID] = w
	m.src.Flux[g.ID] = m.tab.Props(best).FluxWeight
	return nil
}
