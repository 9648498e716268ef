package sertopt

import (
	"fmt"
	"math"

	"repro/internal/aserta"
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

// cellTable interns every cell one optimization run can assign to a
// dense ID: each gate class's menu, built once per class, and each
// gate's hint, its baseline cell. A cell's load-independent properties
// are read once per run, through the library's own methods: a hint's
// when the table is built, since the baseline's metrics need them, and
// any other cell's when it is first assigned. So every value carries
// the library's bits.
type cellTable struct {
	cells []charlib.Cell
	props []cellProps
	// loaded[id] reports whether props[id] has been read.
	loaded []bool
	// hint[g] is gate g's hint cell (-1 for primary inputs) and menu[g]
	// its class menu: the candidates of gate g, in the order they are
	// considered. hint is also the baseline's cell-ID vector.
	hint []int32
	menu [][]int32
}

// cellProps are the load-independent properties of one cell.
type cellProps struct {
	inCap, selfCap, power, area, flux, vdd float64
}

// propsOf reads cell's load-independent properties from the library.
func propsOf(lib *charlib.Library, cell charlib.Cell) (cellProps, error) {
	var p cellProps
	var err error
	if p.inCap, err = lib.InputCap(cell); err != nil {
		return p, err
	}
	if p.selfCap, err = lib.SelfCap(cell); err != nil {
		return p, err
	}
	if p.power, err = lib.StaticPower(cell); err != nil {
		return p, err
	}
	p.area = lib.Area(cell)
	p.flux = cell.FluxWeight()
	p.vdd = cell.VDD
	return p, nil
}

func newCellTable(c *ckt.Circuit, lib *charlib.Library, cfg MatchConfig, baseline aserta.Assignment) (*cellTable, error) {
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
		if g.Type != ckt.Input && baseline[g.ID].Size > maxSize {
			maxSize = baseline[g.ID].Size
		}
	}
	t := &cellTable{hint: make([]int32, len(c.Gates)), menu: make([][]int32, len(c.Gates))}
	index := make(map[charlib.Cell]int32)
	intern := func(cell charlib.Cell) int32 {
		id, ok := index[cell]
		if !ok {
			id = int32(len(t.cells))
			index[cell] = id
			t.cells = append(t.cells, cell)
		}
		return id
	}
	menus := make(map[charlib.Class][]int32)
	for _, g := range c.Gates {
		t.hint[g.ID] = -1
		if g.Type == ckt.Input {
			continue
		}
		t.hint[g.ID] = intern(baseline[g.ID])
		cl := charlib.Class{Type: g.Type, Fanin: len(g.Fanin)}
		menu, ok := menus[cl]
		if !ok {
			for _, cell := range lib.Menu(cl, cfg.VDDs, cfg.Vths, maxSize) {
				menu = append(menu, intern(cell))
			}
			menus[cl] = menu
		}
		t.menu[g.ID] = menu
	}
	t.props = make([]cellProps, len(t.cells))
	t.loaded = make([]bool, len(t.cells))
	for _, id := range t.hint {
		if id >= 0 {
			if _, err := t.use(lib, id); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// use returns cell id's properties, reading them on first use.
func (t *cellTable) use(lib *charlib.Library, id int32) (*cellProps, error) {
	p := &t.props[id]
	if t.loaded[id] {
		return p, nil
	}
	var err error
	if *p, err = propsOf(lib, t.cells[id]); err != nil {
		return nil, err
	}
	t.loaded[id] = true
	return p, nil
}

// assignment expands a cell-ID vector (-1 for primary inputs) into
// cells.
func (t *cellTable) assignment(ids []int32) aserta.Assignment {
	cells := make(aserta.Assignment, len(ids))
	for g, id := range ids {
		if id >= 0 {
			cells[g] = t.cells[id]
		}
	}
	return cells
}

// matcher is the §4 delay matcher over one run's cell table. It keeps
// each gate's decision together with the inputs that fixed it — the
// desired delay, the load and the highest successor VDD, by their bits
// — and on the next call re-decides only the gates where one of them
// changed: the chosen cell, its delay and its generated glitch width
// depend on nothing else.
type matcher struct {
	cc  *engine.CompiledCircuit
	lib *charlib.Library
	t   *cellTable
	// ids[g] is gate g's cell ID (-1 for primary inputs, and before
	// the gate's first decision); cells spells the same assignment out.
	ids   []int32
	cells aserta.Assignment
	// src holds what strike.EnumerateSources derives from cells.
	src strike.Sources
	// key[g] holds the inputs ids[g] was decided under, once ids[g] is
	// set.
	key      []matchKey
	assigned []bool
}

// matchKey is the bits of one gate's decision inputs.
type matchKey struct{ desired, load, succVDD uint64 }

// newMatcher returns a matcher over a fresh cell table for one run:
// menus from cfg, and baseline as every gate's hint and size cap.
func newMatcher(cc *engine.CompiledCircuit, lib *charlib.Library, cfg MatchConfig, baseline aserta.Assignment) (*matcher, error) {
	c := cc.Circuit()
	t, err := newCellTable(c, lib, cfg, baseline)
	if err != nil {
		return nil, err
	}
	n := len(c.Gates)
	m := &matcher{
		cc:    cc,
		lib:   lib,
		t:     t,
		ids:   make([]int32, n),
		cells: make(aserta.Assignment, n),
		src: strike.Sources{
			Loads:    make([]float64, n),
			Delays:   make([]float64, n),
			GenWidth: make([]float64, n),
			Flux:     make([]float64, n),
		},
		key:      make([]matchKey, n),
		assigned: make([]bool, n),
	}
	for i := range m.ids {
		m.ids[i] = -1
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
// in fanout order, plus the latch load on a PO: strike.GateLoads'
// summation. Every fanout gate is later in topological order, hence
// already assigned in the reverse walk.
func (m *matcher) load(g *ckt.Gate) (load, succVDD float64, err error) {
	for _, s := range g.Fanout {
		if !m.assigned[s] {
			return 0, 0, fmt.Errorf("sertopt: fanout %s of %s not yet assigned (netlist not a DAG?)", m.cc.Circuit().Gates[s].Name, g.Name)
		}
		p := &m.t.props[m.ids[s]]
		load += p.inCap
		if p.vdd > succVDD {
			succVDD = p.vdd
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
	best := int32(-1)
	bestErr, bestDelay := -1.0, 0.0
	consider := func(id int32) error {
		cell := m.t.cells[id]
		if cell.VDD < succVDD {
			return nil // no low-VDD gate may drive a high-VDD gate
		}
		d, err := m.lib.Delay(cell, load)
		if err != nil {
			return err
		}
		e := absf(d - desired)
		if bestErr < 0 || e < bestErr {
			best, bestErr, bestDelay = id, e, d
		}
		return nil
	}
	if err := consider(m.t.hint[g.ID]); err != nil {
		return err
	}
	for _, id := range m.t.menu[g.ID] {
		if err := consider(id); err != nil {
			return err
		}
	}
	if bestErr < 0 {
		return fmt.Errorf("sertopt: no feasible cell for gate %s (succ VDD %g exceeds menu)", g.Name, succVDD)
	}
	p, err := m.t.use(m.lib, best)
	if err != nil {
		return err
	}
	w, err := m.lib.GlitchGen(m.t.cells[best], load)
	if err != nil {
		return fmt.Errorf("sertopt: glitch gen of %s: %v", g.Name, err)
	}
	m.ids[g.ID] = best
	m.cells[g.ID] = m.t.cells[best]
	m.src.Delays[g.ID] = bestDelay
	m.src.GenWidth[g.ID] = w
	m.src.Flux[g.ID] = p.flux
	return nil
}
