package logicsim

import (
	"fmt"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/stats"
)

// FrameTrace is a K-cycle, 64-way bit-parallel simulation of a
// sequential circuit: each cycle evaluates the combinational frame
// with fresh random primary-input words while the flop state columns
// are carried from the previous cycle's D-pin values. It retains the
// per-cycle PI, state and PO words — everything a fault-propagation
// pass needs to re-evaluate any frame against a perturbed state and
// diff it against the fault-free run.
type FrameTrace struct {
	Circuit *ckt.Circuit
	// N is the vector count; Cycles the number of simulated frames.
	N, Cycles int
	// PI[t] holds cycle t's primary-input words, flat piIndex*nWords
	// in Circuit.Inputs() order.
	PI [][]uint64
	// State[t] holds the flop state at the START of cycle t, flat
	// flopIndex*nWords in Circuit.DFFs() order. State[Cycles] is the
	// final state after the last frame.
	State [][]uint64
	// PO[t] holds cycle t's primary-output words, flat poIndex*nWords
	// in Circuit.Outputs() order.
	PO [][]uint64

	order    []int
	nWords   int
	lastMask uint64
	maxFanin int
}

// NWords returns the number of 64-bit words per signal column.
func (tr *FrameTrace) NWords() int { return tr.nWords }

// LastMask returns the valid-lane mask of the final word of every
// column (all ones when N is a multiple of 64). Callers mutating
// state columns must re-apply it so perturbations never leak into the
// padding lanes.
func (tr *FrameTrace) LastMask() uint64 { return tr.lastMask }

// SimulateFrames runs cycles clock cycles of bit-parallel simulation.
// Primary inputs draw fresh random words every cycle (probability 0.5,
// consumed from rng in Inputs() order, cycle by cycle — the vector set
// is deterministic in the seed). initState gives the flops' reset
// values in DFFs() order; nil means all-zero reset. The same initial
// state is applied to every one of the 64·⌈nVectors/64⌉ parallel
// vector lanes.
func SimulateFrames(c *ckt.Circuit, cycles, nVectors int, rng *stats.RNG, initState []bool) (*FrameTrace, error) {
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	return SimulateFramesCompiled(cc, cycles, nVectors, rng, initState)
}

// SimulateFramesCompiled is SimulateFrames over a pre-compiled
// circuit, reusing the handle's topological order instead of
// re-deriving it per trace.
func SimulateFramesCompiled(cc *engine.CompiledCircuit, cycles, nVectors int, rng *stats.RNG, initState []bool) (*FrameTrace, error) {
	c := cc.Circuit()
	if cycles < 1 {
		return nil, fmt.Errorf("logicsim: SimulateFrames needs cycles >= 1, got %d", cycles)
	}
	if nVectors <= 0 {
		nVectors = DefaultVectors
	}
	flops := c.DFFs()
	if initState != nil && len(initState) != len(flops) {
		return nil, fmt.Errorf("logicsim: initState has %d bits for %d flops", len(initState), len(flops))
	}
	order := cc.TopoOrder()
	nWords := (nVectors + 63) / 64
	lastMask := ^uint64(0)
	if r := nVectors % 64; r != 0 {
		lastMask = (uint64(1) << uint(r)) - 1
	}
	tr := &FrameTrace{
		Circuit:  c,
		N:        nVectors,
		Cycles:   cycles,
		PI:       make([][]uint64, cycles),
		State:    make([][]uint64, cycles+1),
		PO:       make([][]uint64, cycles),
		order:    order,
		nWords:   nWords,
		lastMask: lastMask,
	}
	for _, g := range c.Gates {
		if !g.Type.IsSource() && len(g.Fanin) > tr.maxFanin {
			tr.maxFanin = len(g.Fanin)
		}
	}

	// Broadcast the reset state into the lane words.
	st := make([]uint64, len(flops)*nWords)
	for fi := range flops {
		if initState != nil && initState[fi] {
			w := st[fi*nWords : (fi+1)*nWords]
			for k := range w {
				w[k] = ^uint64(0)
			}
			w[nWords-1] &= lastMask
		}
	}
	tr.State[0] = st

	vals := make([]uint64, len(c.Gates)*nWords)
	pos := c.Outputs()
	for t := 0; t < cycles; t++ {
		pi := make([]uint64, len(c.Inputs())*nWords)
		for i := range c.Inputs() {
			w := pi[i*nWords : (i+1)*nWords]
			for k := range w {
				w[k] = rng.Uint64()
			}
			w[nWords-1] &= lastMask
		}
		tr.PI[t] = pi

		tr.EvalFrame(vals, t, tr.State[t])

		po := make([]uint64, len(pos)*nWords)
		for p, id := range pos {
			copy(po[p*nWords:(p+1)*nWords], vals[id*nWords:(id+1)*nWords])
		}
		tr.PO[t] = po

		next := make([]uint64, len(flops)*nWords)
		tr.NextState(vals, next)
		tr.State[t+1] = next
	}
	return tr, nil
}

// EvalFrame evaluates cycle t's combinational frame into vals (flat
// gateID*nWords, length NumGates*NWords): primary-input rows come from
// the trace's stored words for that cycle, flop rows from the given
// state (flat flopIndex*nWords), and every combinational gate is
// evaluated in topological order. Passing a state other than
// State[t] — e.g. one with a flop column flipped — re-runs the frame
// under that perturbation against identical inputs, which is exactly
// the fault-propagation primitive the sequential analysis needs.
func (tr *FrameTrace) EvalFrame(vals []uint64, t int, state []uint64) {
	c := tr.Circuit
	nWords := tr.nWords
	pi := tr.PI[t]
	for i, id := range c.Inputs() {
		copy(vals[id*nWords:(id+1)*nWords], pi[i*nWords:(i+1)*nWords])
	}
	for fi, id := range c.DFFs() {
		copy(vals[id*nWords:(id+1)*nWords], state[fi*nWords:(fi+1)*nWords])
	}
	in := make([]uint64, tr.maxFanin)
	for _, id := range tr.order {
		g := c.Gates[id]
		if g.Type.IsSource() {
			continue
		}
		w := vals[id*nWords : (id+1)*nWords]
		fin := in[:len(g.Fanin)]
		for k := 0; k < nWords; k++ {
			for fi, f := range g.Fanin {
				fin[fi] = vals[f*nWords+k]
			}
			w[k] = g.Type.EvalWord(fin)
		}
		w[nWords-1] &= tr.lastMask
	}
}

// NextState extracts the D-pin words of an evaluated frame into dst
// (flat flopIndex*nWords): the value each flop will present at its Q
// output in the next cycle.
func (tr *FrameTrace) NextState(vals, dst []uint64) {
	c := tr.Circuit
	nWords := tr.nWords
	for fi, id := range c.DFFs() {
		d := c.Gates[id].Fanin[0]
		copy(dst[fi*nWords:(fi+1)*nWords], vals[d*nWords:(d+1)*nWords])
	}
}
