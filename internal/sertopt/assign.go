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
// its generated glitch width depend on nothing else. A load and a
// successor VDD read only the fanout cells, so a gate re-sums them
// only when a fanout's cell changed earlier in the same walk (dirty).
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
	key []matchKey
	// dirty[g] marks a gate whose load and successor VDD must be
	// re-summed: every gate before the first walk, and afterwards the
	// fanins of each gate whose cell a decision changed.
	dirty []bool
	// rows maps a hint cell and a load, by its bits, to the offset in
	// rowCand of that pair's candidate row: one entry per candidate,
	// the hint then its class menu. The hint fixes the gate class,
	// hence the menu.
	rows    map[rowKey]int
	rowCand []candidate
	// visits counts the gates the walks have re-examined: those whose
	// desired delay changed or whose load was re-summed.
	visits int
}

// matchKey is the bits of one gate's decision inputs.
type matchKey struct{ desired, load, succVDD uint64 }

// rowKey names one candidate row: a hint cell and a load's bits.
type rowKey struct {
	hint int32
	load uint64
}

// candidate is one cell's delay and generated glitch width at a row's
// load, each read from the library the first time a decision needs it
// and NaN until then. A value the library gives is the same on every
// read, so a row entry serves every later decision exactly.
type candidate struct{ delay, glitch float64 }

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
		key:   make([]matchKey, n),
		dirty: make([]bool, n),
	}
	// The first walk reads at most one row per logic gate; size the
	// rows for that.
	logic, entries := 0, 0
	menus := make(map[charlib.Class][]int32)
	for _, g := range c.Gates {
		m.ids[g.ID] = -1
		m.dirty[g.ID] = true
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
		logic++
		entries += 1 + len(menu)
	}
	m.rows = make(map[rowKey]int, logic)
	m.rowCand = make([]candidate, 0, entries)
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
//
// The walk re-examines a gate only when its desired delay's bits differ
// from its key's or it is dirty; every other gate keeps its key, cell
// and sources, since its decision inputs are unchanged. Every fanout
// precedes a gate in the walk, so a dirty gate's fanout cells are
// final when it re-sums its load. The first call examines every gate.
func (m *matcher) match(desired []float64) error {
	c := m.cc.Circuit()
	for _, id := range m.cc.ReverseTopoOrder() {
		if m.hint[id] < 0 {
			continue // a primary input
		}
		want := math.Float64bits(desired[id])
		if !m.dirty[id] && want == m.key[id].desired {
			continue
		}
		m.visits++
		g := c.Gates[id]
		k := m.key[id]
		k.desired = want
		if m.dirty[id] {
			load, succVDD, err := m.load(g)
			if err != nil {
				return err
			}
			k.load, k.succVDD = math.Float64bits(load), math.Float64bits(succVDD)
		}
		if m.ids[id] < 0 || k != m.key[id] {
			if err := m.decide(g, desired[id], k); err != nil {
				return err
			}
		}
		m.key[id] = k
		m.src.Loads[id] = math.Float64frombits(k.load)
		m.dirty[id] = false
	}
	for _, id := range c.Inputs() {
		if !m.dirty[id] {
			continue
		}
		load, _, err := m.load(c.Gates[id])
		if err != nil {
			return err
		}
		m.src.Loads[id] = load
		m.dirty[id] = false
	}
	return nil
}

// load returns gate g's output load and the highest VDD among its
// fanout cells. The load is the fanout cells' input capacitance summed
// in fanout order, plus the latch load on a PO: charlib.Table.Loads'
// summation. Every fanout gate is later in topological order, hence
// already decided in the reverse walk.
func (m *matcher) load(g *ckt.Gate) (load, succVDD float64, err error) {
	for _, s := range g.Fanout {
		id := m.ids[s]
		if id < 0 {
			return 0, 0, fmt.Errorf("sertopt: fanout %s of %s not yet assigned (netlist not a DAG?)", m.cc.Circuit().Gates[s].Name, g.Name)
		}
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

// decide picks gate g's cell under the decision inputs k: its hint
// first, then its class menu, keeping the first candidate with the
// smallest delay error, so a hint wins ties. No cell may have a lower
// VDD than a successor (no level shifters). The candidates' delays and
// the winner's glitch width come from the row of (hint, load); the VDD
// filter runs first, so a filtered cell's delay is never read, and the
// scan stops at the first exact match, which no later candidate can
// beat. A changed cell marks g's fanins dirty.
func (m *matcher) decide(g *ckt.Gate, desired float64, k matchKey) error {
	id := g.ID
	menu := m.menu[id]
	r := m.rowOf(m.hint[id], k.load, 1+len(menu))
	row := m.rowCand[r : r+1+len(menu)]
	load, succVDD := math.Float64frombits(k.load), math.Float64frombits(k.succVDD)
	lib := m.tab.Library()
	best, bestJ := int32(-1), -1
	bestErr := -1.0
	for j := range row {
		cand := m.hint[id]
		if j > 0 {
			cand = menu[j-1]
		}
		cell := m.tab.Cell(cand)
		if cell.VDD < succVDD {
			continue // no low-VDD gate may drive a high-VDD gate
		}
		if math.IsNaN(row[j].delay) {
			d, err := lib.Delay(cell, load)
			if err != nil {
				return err
			}
			row[j].delay = d
		}
		e := math.Abs(row[j].delay - desired)
		if bestErr < 0 || e < bestErr {
			best, bestJ, bestErr = cand, j, e
		}
		if e == 0 {
			break // no later candidate can beat an exact match
		}
	}
	if bestErr < 0 {
		return fmt.Errorf("sertopt: no feasible cell for gate %s (succ VDD %g exceeds menu)", g.Name, succVDD)
	}
	win := &row[bestJ]
	if math.IsNaN(win.glitch) {
		w, err := lib.GlitchGen(m.tab.Cell(best), load)
		if err != nil {
			return fmt.Errorf("sertopt: glitch gen of %s: %v", g.Name, err)
		}
		win.glitch = w
	}
	if best != m.ids[id] {
		for _, f := range g.Fanin {
			m.dirty[f] = true
		}
	}
	m.ids[id] = best
	m.src.Delays[id] = win.delay
	m.src.GenWidth[id] = win.glitch
	m.src.Flux[id] = m.tab.Props(best).FluxWeight
	return nil
}

// rowOf returns the offset of the candidate row of (hint, load),
// appending a row of n unread entries the first time the pair occurs.
func (m *matcher) rowOf(hint int32, load uint64, n int) int {
	rk := rowKey{hint, load}
	r, ok := m.rows[rk]
	if !ok {
		r = len(m.rowCand)
		for range n {
			m.rowCand = append(m.rowCand, candidate{math.NaN(), math.NaN()})
		}
		m.rows[rk] = r
	}
	return r
}
