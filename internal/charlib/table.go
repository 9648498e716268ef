package charlib

import (
	"fmt"

	"repro/internal/ckt"
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
// same float a per-edge query gives. A Table is not safe for
// concurrent use: each flow keeps its own over a library it may share.
type Table struct {
	lib   *Library
	index map[Cell]int32
	cells []Cell
	props []Props
}

// NewTable returns an empty table over lib.
func NewTable(lib *Library) *Table {
	return &Table{lib: lib, index: make(map[Cell]int32)}
}

// Library returns the library the table reads.
func (t *Table) Library() *Library { return t.lib }

// Intern returns the cell's ID, reading its properties the first time
// the table sees it.
func (t *Table) Intern(c Cell) (int32, error) {
	if id, ok := t.index[c]; ok {
		return id, nil
	}
	p, err := t.lib.Props(c)
	if err != nil {
		return -1, err
	}
	id := int32(len(t.cells))
	t.index[c] = id
	t.cells = append(t.cells, c)
	t.props = append(t.props, p)
	return id, nil
}

// InternAll interns the cell of every gate of c but its primary inputs
// and returns the cell IDs indexed by gate ID, -1 at primary inputs,
// whose entries of cells are ignored.
func (t *Table) InternAll(c *ckt.Circuit, cells []Cell) ([]int32, error) {
	ids := make([]int32, len(c.Gates))
	for _, g := range c.Gates {
		ids[g.ID] = -1
		if g.Type == ckt.Input {
			continue
		}
		id, err := t.Intern(cells[g.ID])
		if err != nil {
			return nil, fmt.Errorf("charlib: cell of gate %s: %v", g.Name, err)
		}
		ids[g.ID] = id
	}
	return ids, nil
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
