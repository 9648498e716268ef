package sertopt

import (
	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/strike"
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
// assignment. The loads, delays and toggle activities are the
// analysis' own; only the cells' load-independent properties are read
// from the library.
func EvaluateMetrics(cc *engine.CompiledCircuit, lib *charlib.Library, an *aserta.Analysis) (Metrics, error) {
	c := cc.Circuit()
	props := make([]cellProps, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		var err error
		if props[g.ID], err = propsOf(lib, an.Cells[g.ID]); err != nil {
			return Metrics{}, err
		}
	}
	return metricsOf(cc, an.Sens, an.Loads, an.Delays, func(id int) *cellProps { return &props[id] }), nil
}

// metricsOf is the one metrics core: the critical-path delay, energy
// and area of an assignment from every gate's load, delay, toggle
// activity and cell properties (cell(id) for each non-input gate).
// Sums run in netlist order.
func metricsOf(cc *engine.CompiledCircuit, sens *logicsim.Result, loads, delays []float64, cell func(id int) *cellProps) Metrics {
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
	// Energy and area: activity-weighted CV² switching energy (the
	// library's DynEnergyPerTransition) plus leakage over one period.
	period := ClockPeriodFactor * m.Delay
	var dyn, leakP float64
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		p := cell(g.ID)
		e := (p.selfCap + loads[g.ID]) * p.vdd * p.vdd
		dyn += sens.Activity[g.ID] * e
		leakP += p.power
		m.Area += p.area
	}
	m.Energy = dyn + leakP*period
	return m
}

// InitialSizing produces the baseline "optimized for speed" assignment
// standing in for the paper's Synopsys Design Compiler run: nominal
// L/VDD/Vth cells sized by fanout-load pressure (a logical-effort
// flavored heuristic) over the library's whole size grid, iterated
// until sizes settle.
func InitialSizing(c *ckt.Circuit, lib *charlib.Library, poLoad float64) (aserta.Assignment, error) {
	cells := aserta.NominalAssignment(c, lib, 1)
	sizes := lib.Grid.Sizes
	for pass := 0; pass < 3; pass++ {
		loads, err := strike.GateLoads(c, lib, cells, poLoad)
		if err != nil {
			return nil, err
		}
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			unit := cells[g.ID]
			unit.Size = 1
			cin, err := lib.InputCap(unit)
			if err != nil {
				return nil, err
			}
			// Target electrical fanout of ~3 unit input caps per size
			// step, snapped to the library's size grid.
			want := loads[g.ID] / (3 * cin)
			best := sizes[0]
			for _, s := range sizes {
				if absf(s-want) < absf(best-want) {
					best = s
				}
			}
			cells[g.ID].Size = best
		}
	}
	return cells, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
