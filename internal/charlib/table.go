package charlib

import (
	"fmt"
	"math"

	"repro/internal/ckt"
	"repro/internal/spice"
)

// Props are the load-independent properties of one cell: all that an
// analysis or the Eq. 5 cost reads of a cell besides its delay and
// generated glitch width, which depend on the load.
type Props struct {
	// InputCap is the capacitance one input pin of the cell presents
	// to its driver (F).
	InputCap float64
	// SelfCap is the cell's output diffusion capacitance (F).
	SelfCap float64
	// StaticPower is the cell's leakage power (W).
	StaticPower float64
	// Area is Cell.Area, the layout-area term of the Eq. 5 cost.
	Area float64
	// FluxWeight is Cell.FluxWeight, the Eq. 3 weight Z_i.
	FluxWeight float64
}

// Table interns the cells of one flow to dense IDs. The first time it
// sees a cell it reads the cell's Props from the library, in one memo
// lookup, so the flow's readers sum loads and weigh cells from dense
// arrays instead of asking the library once per fanout edge. Every
// value is the library's own, so a load summed from the table is the
// same float a per-edge query gives. Interning is not safe for
// concurrent use: a flow interns into its own table over a library it
// may share, and hands the table on with its assignments, whose
// readers only read it.
type Table struct {
	lib   *Library
	index map[cellKey]int32
	cells []Cell
	props []Props
}

// NewTable returns an empty table over lib.
func NewTable(lib *Library) *Table {
	return &Table{lib: lib, index: make(map[cellKey]int32)}
}

// Library returns the library the table reads.
func (t *Table) Library() *Library { return t.lib }

// Intern returns the cell's ID, reading its properties the first time
// the table sees it. It refuses a cell whose size, channel length, VDD
// or Vth is not a finite positive number, which no analysis can use;
// so no cell it keys holds ±0 or NaN, where the bits of cellKey and
// float equality differ.
func (t *Table) Intern(c Cell) (int32, error) {
	k := keyOf(c)
	if id, ok := t.index[k]; ok {
		return id, nil
	}
	for _, v := range [...]float64{c.Size, c.L, c.VDD, c.Vth} {
		if !(v > 0) || math.IsInf(v, 1) {
			return -1, fmt.Errorf("charlib: %v cell has size %g, L %g, VDD %g, Vth %g; each must be finite and positive", c.Class(), c.Size, c.L, c.VDD, c.Vth)
		}
	}
	p, err := t.lib.Props(c)
	if err != nil {
		return -1, err
	}
	id := int32(len(t.cells))
	t.index[k] = id
	t.cells = append(t.cells, c)
	t.props = append(t.props, p)
	return id, nil
}

// Assignment is a per-gate cell assignment, the one form in which the
// analysis and the optimizer hold one: IDs[g] is gate g's cell ID in
// T, -1 at a primary input.
type Assignment struct {
	T   *Table
	IDs []int32
}

// Cell returns gate g's cell, the zero Cell at a primary input.
func (a Assignment) Cell(g int) Cell {
	if a.IDs[g] < 0 {
		return Cell{}
	}
	return a.T.cells[a.IDs[g]]
}

// InternAll interns cells[g] for every gate g of c but its primary
// inputs, whose entries are ignored.
func (t *Table) InternAll(c *ckt.Circuit, cells []Cell) (Assignment, error) {
	if len(cells) != len(c.Gates) {
		return Assignment{}, fmt.Errorf("charlib: %d cells for %d gates", len(cells), len(c.Gates))
	}
	return t.assign(c, func(g *ckt.Gate) Cell { return cells[g.ID] })
}

// NominalAssignment assigns every gate of c but its primary inputs the
// paper's baseline cell (L=70nm, VDD=1V, Vth=0.2V) at the given
// relative size, in a new table over lib.
func NominalAssignment(c *ckt.Circuit, lib *Library, size float64) (Assignment, error) {
	p := spice.Nominal(lib.Tech, size)
	return NewTable(lib).assign(c, func(g *ckt.Gate) Cell {
		return Cell{Type: g.Type, Fanin: len(g.Fanin), Params: p}
	})
}

// assign interns cellOf(g) for every gate g of c but its primary
// inputs, in gate order.
func (t *Table) assign(c *ckt.Circuit, cellOf func(*ckt.Gate) Cell) (Assignment, error) {
	a := Assignment{T: t, IDs: make([]int32, len(c.Gates))}
	for _, g := range c.Gates {
		a.IDs[g.ID] = -1
		if g.Type == ckt.Input {
			continue
		}
		id, err := t.Intern(cellOf(g))
		if err != nil {
			return Assignment{}, fmt.Errorf("charlib: cell of gate %s: %v", g.Name, err)
		}
		a.IDs[g.ID] = id
	}
	return a, nil
}

// Len returns the number of cells interned so far; their IDs are 0
// to Len()-1.
func (t *Table) Len() int { return len(t.cells) }

// Cell returns the cell with the given ID.
func (t *Table) Cell(id int32) Cell { return t.cells[id] }

// Props returns the properties of the cell with the given ID.
func (t *Table) Props(id int32) *Props { return &t.props[id] }

// Loads writes each gate's output load under the cell IDs ids into
// loads: the input capacitance of every fanout pin, summed in fanout
// order, plus poLoad, the latch load, on a primary output.
func (t *Table) Loads(c *ckt.Circuit, ids []int32, poLoad float64, loads []float64) {
	for _, g := range c.Gates {
		load := 0.0
		for _, s := range g.Fanout {
			load += t.props[ids[s]].InputCap
		}
		if g.PO {
			load += poLoad
		}
		loads[g.ID] = load
	}
}
