// Package charlib builds and serves the SPICE-characterized lookup
// tables at the heart of ASERTA: "A SPICE look-up table is constructed
// for generated glitch width ... look-up tables are also constructed
// for delays, static energies, dynamic energies, output ramp and gate
// input capacitances for different types of gates, fan-ins, sizes,
// channel lengths, VDDs, Vths ... and load capacitances."
//
// Characterization drives the internal/spice transient simulator over
// a parameter grid once, storing results in internal/lut tables that
// are then interpolated during analysis and optimization. Libraries
// can be cached to JSON. No analysis reads an output ramp, so none is
// tabulated: characterization measures the ramp only to reject a delay
// transient whose output never completes a swing.
package charlib

import (
	"fmt"

	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/spice"
)

// Cell is one concrete assignable cell: a gate class plus the paper's
// four design variables.
type Cell struct {
	Type  ckt.GateType
	Fanin int
	spice.Params
}

// Class identifies a characterization class: gate function + fanin.
type Class struct {
	Type  ckt.GateType
	Fanin int
}

// String implements fmt.Stringer ("NAND2", "INV", ...).
func (cl Class) String() string {
	if cl.Type == ckt.Not {
		return "INV"
	}
	if cl.Type == ckt.Buf {
		return "BUF"
	}
	return fmt.Sprintf("%s%d", cl.Type, cl.Fanin)
}

// Class returns the cell's characterization class.
func (c Cell) Class() Class { return Class{Type: c.Type, Fanin: c.Fanin} }

// ClassOf returns the characterization class of a gate.
func ClassOf(g *ckt.Gate) Class {
	return Class{Type: g.Type, Fanin: len(g.Fanin)}
}

// numTransistors returns the transistor count of the class's static
// CMOS implementation (used by the area model).
func (cl Class) numTransistors() int {
	switch cl.Type {
	case ckt.Not:
		return 2
	case ckt.Buf:
		return 4
	case ckt.Nand, ckt.Nor:
		return 2 * cl.Fanin
	case ckt.And, ckt.Or:
		return 2*cl.Fanin + 2
	case ckt.Xor, ckt.Xnor:
		return 8 * (cl.Fanin - 1)
	}
	return 2 * cl.Fanin
}

// Area returns the cell's active-area metric in units of
// (Wbase × Lmin): transistor count × relative width × relative length.
// This is the layout-area term of the Eq. 5 cost.
func (c Cell) Area(tech *devmodel.Tech) float64 {
	return float64(c.Class().numTransistors()) * c.Size * (c.L / tech.Lmin)
}

// FluxWeight returns the paper's Z_i of Eq. 3: the strike-collection
// weight of the gate. Particle flux is collected by the drain
// junctions, whose area scales with transistor count and gate width
// ("size") but not with channel length, so the length ratio is
// deliberately absent here (unlike Area).
func (c Cell) FluxWeight() float64 {
	return float64(c.Class().numTransistors()) * c.Size
}
