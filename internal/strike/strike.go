// Package strike is the composable strike-propagation pipeline every
// analysis flow shares: the combinational ASERTA analysis (aserta, Eq.
// 1–4), the sequential engine (seq: per-frame electrical filtering plus
// the multi-cycle fault chase) and the optimizer's incremental
// re-evaluation (sertopt). It hosts each of the paper's masking
// mechanisms exactly once, as a pipeline stage over
// engine.CompiledCircuit:
//
//	EnumerateSources  per-gate strike parameters: output loads,
//	                  delays, generated glitch widths w_i, flux
//	                  weights Z_i (Eq. 3) — everything derived from the
//	                  cell assignment, read through a charlib.Table.
//	ElectricalFilter  the Propagator: Eq. 1 attenuation and the Eq. 2
//	                  π-split applied in one reverse-topological pass
//	                  over the §3.2 sample-width ladder, producing the
//	                  expected PO glitch widths W_ij. It visits only
//	                  the (gate, PO) pairs with P_ij ≠ 0, listed per
//	                  column once per sensitization result and memoized
//	                  on the compiled handle, and keeps one compact
//	                  sample-width row per pair. Deterministic and
//	                  parallel over PO columns; the Delta variant
//	                  re-evaluates other sources exactly, re-doing
//	                  only what differs from the baseline: the pairs
//	                  of gates in the fanin cones of gates whose
//	                  delays changed, and the gates whose generated
//	                  width or flux weight changed (the optimizer's
//	                  inner loop).
//	LatchingWindow    the Eq. 3 clamp min(W, T): a glitch wider than
//	                  the clock period is certainly latched. Clamp,
//	                  GateU and the Reduce/ReduceSequential reducers.
//	LogicalPropagate  the sequential multi-cycle fault chase: a fault
//	                  captured into a flop is simulated against the
//	                  fault-free run, event-driven over the gates it
//	                  disturbs, until it reaches a primary output or
//	                  dies.
//	Reduce            deterministic accumulation into per-gate U
//	                  contributions — a first-class output, ranked into
//	                  the per-gate susceptibility product by Rank.
//
// Flows are thin configurations: combinational ASERTA runs
// EnumerateSources → ElectricalFilter → Reduce (no window-capture
// split); the sequential engine adds the flop-capture window and
// LogicalPropagate; the optimizer re-enters through Delta to score its
// candidates and probe dU/dd incrementally.
//
// Determinism: for a fixed seed every stage is bit-identical between
// its serial and parallel paths — the electrical pass partitions PO
// columns (each worker owns all pairs of its columns), the fault chase
// sums integer per-flop error counts over vector chunks, and the
// reducers accumulate in netlist order.
package strike

import (
	"fmt"

	"repro/internal/charlib"
	"repro/internal/engine"
)

// Sources is the EnumerateSources stage output: per-gate strike-source
// parameters indexed by gate ID (source pseudo-gates hold zeros).
type Sources struct {
	// Loads[i] is the capacitive load on gate i's output (F).
	Loads []float64
	// Delays[i] is gate i's propagation delay under its load (s).
	Delays []float64
	// GenWidth[i] is the strike-induced glitch width w_i at gate i (s).
	GenWidth []float64
	// Flux[i] is gate i's Eq. 3 flux weight Z_i (strike-collection
	// area).
	Flux []float64
}

// EnumerateSources derives every gate's strike parameters from a cell
// assignment: loads, delays, generated glitch widths and flux weights.
// Each load is the assignment table's sum over the gate's fanout pins
// plus poLoad on a primary output. It is the first pipeline stage;
// everything downstream depends only on its output and the netlist.
func EnumerateSources(cc *engine.CompiledCircuit, cells charlib.Assignment, poLoad float64) (*Sources, error) {
	c := cc.Circuit()
	n := len(c.Gates)
	if len(cells.IDs) != n {
		return nil, fmt.Errorf("strike: %d cells for %d gates", len(cells.IDs), n)
	}
	src := &Sources{
		Loads:    make([]float64, n),
		Delays:   make([]float64, n),
		GenWidth: make([]float64, n),
		Flux:     make([]float64, n),
	}
	t := cells.T
	t.Loads(c, cells.IDs, poLoad, src.Loads)
	lib := t.Library()
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		id := cells.IDs[g.ID]
		cell := t.Cell(id)
		d, err := lib.Delay(cell, src.Loads[g.ID])
		if err != nil {
			return nil, fmt.Errorf("strike: delay of %s: %v", g.Name, err)
		}
		src.Delays[g.ID] = d
		w, err := lib.GlitchGen(cell, src.Loads[g.ID])
		if err != nil {
			return nil, fmt.Errorf("strike: glitch gen of %s: %v", g.Name, err)
		}
		src.GenWidth[g.ID] = w
		src.Flux[g.ID] = t.Props(id).FluxWeight
	}
	return src, nil
}
