package strike

// The reference chase: the full-width frame simulation and the
// per-flop fault chase LogicalPropagate used before it became
// event-driven, kept verbatim as the oracle the event-driven chase
// must match bit for bit, together with the golden tests of the frame
// simulation itself.

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/par"
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
		nVectors = logicsim.DefaultVectors
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

// referenceLogicalPropagate is the chase over a full-width FrameTrace:
// for each flop, every frame of the trace is re-evaluated at the full
// run width until the fault dies or the horizon ends.
func referenceLogicalPropagate(ctx context.Context, cc *engine.CompiledCircuit, cycles, vectors int, rng *stats.RNG, initState []bool, workers int) ([]float64, error) {
	c := cc.Circuit()
	flops := c.DFFs()
	nFlops := len(flops)
	epf := make([]float64, nFlops)
	if nFlops == 0 {
		return epf, nil
	}
	tr, err := SimulateFramesCompiled(cc, cycles, vectors, rng, initState)
	if err != nil {
		return nil, err
	}
	nW := tr.NWords()
	lastMask := tr.LastMask()
	nGates := len(c.Gates)
	pos := c.Outputs()
	nw := par.Workers(workers)
	if nw > nFlops {
		nw = nFlops
	}
	type scratch struct{ vals, st, next []uint64 }
	scratches := make([]scratch, nw)
	for i := range scratches {
		scratches[i] = scratch{
			vals: make([]uint64, nGates*nW),
			st:   make([]uint64, nFlops*nW),
			next: make([]uint64, nFlops*nW),
		}
	}
	par.Each(nFlops, nw, 1, func(worker, lo, hi int) {
		vals := scratches[worker].vals
		for fi := lo; fi < hi; fi++ {
			st, next := scratches[worker].st, scratches[worker].next
			if ctx.Err() != nil {
				return // the post-pool ctx check reports the cancellation
			}
			copy(st, tr.State[0])
			row := st[fi*nW : (fi+1)*nW]
			for k := range row {
				row[k] = ^row[k]
			}
			row[nW-1] &= lastMask
			errs := 0
			for t := 0; t < tr.Cycles; t++ {
				if equalWords(st, tr.State[t]) {
					break // the fault died: the faulty run rejoined the trace
				}
				tr.EvalFrame(vals, t, st)
				for p, poID := range pos {
					for k := 0; k < nW; k++ {
						errs += bits.OnesCount64(vals[poID*nW+k] ^ tr.PO[t][p*nW+k])
					}
				}
				tr.NextState(vals, next)
				st, next = next, st
			}
			epf[fi] = float64(errs) / float64(tr.N)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return epf, nil
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unroll expands a sequential circuit into a purely combinational one
// covering K cycles: gate g at cycle t becomes "g@t", a primary input
// becomes a fresh input per cycle, and a reference to flop f's Q at
// cycle t resolves to f's D driver at cycle t-1 (at t == 0, to a
// dedicated "<f>@init" input). This is the classical time-frame
// expansion; evaluating it one vector at a time is an independent
// reference for SimulateFrames' word-level state carrying.
func unroll(t *testing.T, c *ckt.Circuit, K int) *ckt.Circuit {
	t.Helper()
	u := ckt.New(c.Name + "-unrolled")
	var nodeName func(id, cycle int) string
	nodeName = func(id, cycle int) string {
		g := c.Gates[id]
		switch g.Type {
		case ckt.Input:
			return fmt.Sprintf("%s@%d", g.Name, cycle)
		case ckt.DFF:
			if cycle == 0 {
				return g.Name + "@init"
			}
			return nodeName(g.Fanin[0], cycle-1)
		default:
			return fmt.Sprintf("%s@%d", g.Name, cycle)
		}
	}
	for _, id := range c.DFFs() {
		u.MustAddGate(c.Gates[id].Name+"@init", ckt.Input)
	}
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < K; cycle++ {
		for _, id := range c.Inputs() {
			u.MustAddGate(nodeName(id, cycle), ckt.Input)
		}
		for _, id := range order {
			g := c.Gates[id]
			if g.Type.IsSource() {
				continue
			}
			nid := u.MustAddGate(nodeName(id, cycle), g.Type)
			for _, f := range g.Fanin {
				src, ok := u.GateByName(nodeName(f, cycle))
				if !ok {
					t.Fatalf("unroll: %s missing fanin %s", nodeName(id, cycle), nodeName(f, cycle))
				}
				u.MustConnect(src, nid)
			}
		}
		for _, id := range c.Outputs() {
			poID, ok := u.GateByName(nodeName(id, cycle))
			if !ok {
				t.Fatalf("unroll: missing PO node %s", nodeName(id, cycle))
			}
			u.MarkPO(poID)
		}
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("unrolled circuit invalid: %v", err)
	}
	return u
}

// TestSimulateFramesMatchesUnrolledS27 is the golden test for frame
// simulation: K frames of s27 must be bit-identical to per-vector
// boolean evaluation of the hand-unrolled combinational expansion.
func TestSimulateFramesMatchesUnrolledS27(t *testing.T) {
	c := gen.S27()
	const K = 5
	const nVec = 130 // exercises a partial last word
	const seed = 42

	tr, err := SimulateFrames(c, K, nVec, stats.NewRNG(seed), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Regenerate the PI stream independently: SimulateFrames consumes
	// rng cycle by cycle, input by input, word by word.
	rng := stats.NewRNG(seed)
	nW := (nVec + 63) / 64
	nPIs := len(c.Inputs())
	piWords := make([][]uint64, K)
	for cyc := 0; cyc < K; cyc++ {
		w := make([]uint64, nPIs*nW)
		for i := 0; i < nPIs; i++ {
			for k := 0; k < nW; k++ {
				w[i*nW+k] = rng.Uint64()
			}
		}
		piWords[cyc] = w
	}
	bit := func(words []uint64, col, v int) bool {
		return words[col*nW+v/64]>>(uint(v)%64)&1 == 1
	}

	u := unroll(t, c, K)
	uInputs := u.Inputs()
	inVals := make([]bool, len(uInputs))
	piIdx := make(map[string]int, nPIs)
	for i, id := range c.Inputs() {
		piIdx[c.Gates[id].Name] = i
	}

	for v := 0; v < nVec; v++ {
		for i, id := range uInputs {
			name := u.Gates[id].Name
			var val bool
			var cyc, pi int
			if n, _ := fmt.Sscanf(name, "G%d@%d", &pi, &cyc); n == 2 {
				val = bit(piWords[cyc], piIdx[fmt.Sprintf("G%d", pi)], v)
			} else {
				val = false // "<f>@init": all-zero reset
			}
			inVals[i] = val
		}
		got, err := logicsim.Evaluate(u, inVals)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < K; cyc++ {
			for p, poID := range c.Outputs() {
				uid, _ := u.GateByName(fmt.Sprintf("%s@%d", c.Gates[poID].Name, cyc))
				want := got[uid]
				have := bit(tr.PO[cyc], p, v)
				if want != have {
					t.Fatalf("cycle %d PO %s vector %d: frames=%v unrolled=%v",
						cyc, c.Gates[poID].Name, v, have, want)
				}
			}
			// State entering cycle cyc+1 must equal the D-driver value
			// at cycle cyc.
			for fi, ffID := range c.DFFs() {
				d := c.Gates[ffID].Fanin[0]
				uid, ok := u.GateByName(fmt.Sprintf("%s@%d", c.Gates[d].Name, cyc))
				if !ok {
					t.Fatalf("unroll: missing D node %s@%d", c.Gates[d].Name, cyc)
				}
				want := got[uid]
				have := bit(tr.State[cyc+1], fi, v)
				if want != have {
					t.Fatalf("state after cycle %d flop %s vector %d: frames=%v unrolled=%v",
						cyc, c.Gates[ffID].Name, v, have, want)
				}
			}
		}
	}
}

func TestSimulateFramesInitState(t *testing.T) {
	c := gen.S27()
	init := []bool{true, false, true}
	tr, err := SimulateFrames(c, 2, 70, stats.NewRNG(1), init)
	if err != nil {
		t.Fatal(err)
	}
	nW := tr.NWords()
	for fi, want := range init {
		for v := 0; v < 70; v++ {
			got := tr.State[0][fi*nW+v/64]>>(uint(v)%64)&1 == 1
			if got != want {
				t.Fatalf("flop %d lane %d initial state = %v, want %v", fi, v, got, want)
			}
		}
	}
	// Padding lanes beyond N must stay zero (masked).
	if tr.State[0][nW-1]>>uint(70%64) != 0 {
		t.Fatal("initial state leaks into masked lanes")
	}
	if _, err := SimulateFrames(c, 2, 70, stats.NewRNG(1), []bool{true}); err == nil {
		t.Fatal("wrong-length initState accepted")
	}
	if _, err := SimulateFrames(c, 0, 70, stats.NewRNG(1), nil); err == nil {
		t.Fatal("cycles=0 accepted")
	}
}

func TestSimulateFramesDeterministic(t *testing.T) {
	c := gen.S27()
	a, err := SimulateFrames(c, 4, 256, stats.NewRNG(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateFrames(c, 4, 256, stats.NewRNG(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 4; cyc++ {
		for i := range a.PO[cyc] {
			if a.PO[cyc][i] != b.PO[cyc][i] {
				t.Fatalf("PO words differ at cycle %d", cyc)
			}
		}
	}
}
