package sertopt

import (
	"fmt"
	"math"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
)

// Metrics are the circuit-level figures entering the Eq. 5 cost
// alongside unreliability.
type Metrics struct {
	// Delay is the critical-path delay (s) under the assignment.
	Delay float64
	// Energy is the per-cycle energy (J): activity-weighted dynamic
	// CV² energy plus leakage energy over one clock period.
	Energy float64
	// Area is the summed cell-area metric.
	Area float64
}

// ClockPeriodFactor sets the clock period used for leakage energy as a
// multiple of the critical-path delay.
const ClockPeriodFactor = 1.2

// EvaluateMetrics computes the delay, energy and area of an analyzed
// assignment: the analysis' loads, delays, toggle activities and cells.
func EvaluateMetrics(cc *engine.CompiledCircuit, an *aserta.Analysis) Metrics {
	return metricsOf(cc, an.Sens, an.Loads, an.Delays, an.Cells)
}

// metricsOf is the one metrics core: the critical-path delay, energy
// and area of an assignment from every gate's load, delay, toggle
// activity and cell. Sums run in netlist order.
func metricsOf(cc *engine.CompiledCircuit, sens *logicsim.Result, loads, delays []float64, cells charlib.Assignment) Metrics {
	c := cc.Circuit()
	var m Metrics
	// Critical path: longest arrival over the DAG.
	arrival := make([]float64, len(c.Gates))
	for _, id := range cc.TopoOrder() {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		in := 0.0
		for _, f := range g.Fanin {
			if arrival[f] > in {
				in = arrival[f]
			}
		}
		arrival[id] = in + delays[id]
		if g.PO && arrival[id] > m.Delay {
			m.Delay = arrival[id]
		}
	}
	// Energy and area: activity-weighted CV² switching energy,
	// (self + load)·VDD·VDD per transition, plus leakage over one
	// period.
	period := ClockPeriodFactor * m.Delay
	var dyn, leakP float64
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		id := cells.IDs[g.ID]
		p := cells.T.Props(id)
		vdd := cells.T.Cell(id).VDD
		e := (p.SelfCap + loads[g.ID]) * vdd * vdd
		dyn += sens.Activity[g.ID] * e
		leakP += p.StaticPower
		m.Area += p.Area
	}
	m.Energy = dyn + leakP*period
	return m
}

// InitialSizing produces the baseline "optimized for speed" assignment
// standing in for the paper's Synopsys Design Compiler run: nominal
// L/VDD/Vth cells sized by fanout-load pressure (a logical-effort
// flavored heuristic) over the library's whole size grid. It makes
// three passes, each sizing every gate against the loads of the sizes
// the previous pass chose, and stops there whether or not the sizes
// have settled: in its third pass c7552 still changes 9 gates and
// c2670 6 on the coarse grid, and c6288 110 on the default grid. The
// assignment's table is new and holds the unit-size cells too.
func InitialSizing(c *ckt.Circuit, lib *charlib.Library, poLoad float64) (charlib.Assignment, error) {
	// Each gate's first cell is its unit-size one, whose input
	// capacitance scales the gate's size target in every pass. The
	// unit cells are the table's first, with IDs below t.Len().
	a, err := charlib.NominalAssignment(c, lib, 1)
	if err != nil {
		return charlib.Assignment{}, err
	}
	t := a.T
	unit := append([]int32(nil), a.IDs...)
	loads := make([]float64, len(c.Gates))
	sizes := lib.Grid.Sizes
	// sized[u·len(sizes)+k] is the ID of unit cell u resized to
	// sizes[k], -1 until some gate first takes it. A pass changes only
	// sizes, so it finds each new cell here instead of hashing it.
	sized := make([]int32, t.Len()*len(sizes))
	for i := range sized {
		sized[i] = -1
	}
	for pass := 0; pass < 3; pass++ {
		t.Loads(c, a.IDs, poLoad, loads)
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			// Target electrical fanout of ~3 unit input caps per size
			// step, snapped to the library's size grid.
			u := unit[g.ID]
			want := loads[g.ID] / (3 * t.Props(u).InputCap)
			k := 0
			for i, s := range sizes {
				if math.Abs(s-want) < math.Abs(sizes[k]-want) {
					k = i
				}
			}
			id := &sized[int(u)*len(sizes)+k]
			if *id < 0 {
				cell := t.Cell(u)
				cell.Size = sizes[k]
				if *id, err = t.Intern(cell); err != nil {
					return charlib.Assignment{}, fmt.Errorf("sertopt: sizing gate %s: %v", g.Name, err)
				}
			}
			a.IDs[g.ID] = *id
		}
	}
	return a, nil
}
