package seq

import (
	"fmt"

	"repro/internal/ckt"
	"repro/internal/engine"
)

// Frame is the combinational frame of a sequential circuit: the same
// gate fabric with every flip-flop replaced by an Input pseudo-gate
// (its Q output is a frame source carrying the previous cycle's
// state) and every D-pin driver marked as an additional primary
// output (the value the flop will latch). Gate IDs are preserved —
// Comb.Gates[i] corresponds one-to-one with Seq.Gates[i] — so
// analysis results on the frame map straight back to the sequential
// netlist.
type Frame struct {
	// Seq is the original sequential circuit; Comb the derived
	// combinational frame.
	Seq  *ckt.Circuit
	Comb *ckt.Circuit
	// CC is the compiled artifact of Comb: built once per frame and
	// shared by the sensitization run, the electrical pass and every
	// strike source across all K cycles.
	CC *engine.CompiledCircuit
	// NumRealPOs is the count of genuine primary outputs; the first
	// NumRealPOs columns of Comb.Outputs() are exactly Seq.Outputs()
	// in order. The remaining columns are flop-capture taps.
	NumRealPOs int
	// FlopCols[fi] is the Comb.Outputs() column holding the D-pin
	// value of flop Seq.DFFs()[fi]. When a D pin is driven by a frame
	// source directly (a PI or another flop's Q — no combinational
	// logic in between), the column's PO gate is an Input pseudo-gate:
	// no strike can originate there, and its sensitization column is
	// identically zero, so such flops correctly capture nothing from
	// the electrical stage.
	FlopCols []int
}

// BuildFrame derives the combinational frame of c. Purely
// combinational circuits are legal inputs: the frame is then simply a
// structural copy.
func BuildFrame(c *ckt.Circuit) (*Frame, error) {
	comb := ckt.New(c.Name + "#frame")
	for _, g := range c.Gates {
		t := g.Type
		if t == ckt.DFF {
			t = ckt.Input
		}
		if _, err := comb.AddGate(g.Name, t); err != nil {
			return nil, fmt.Errorf("seq: frame of %q: %v", c.Name, err)
		}
	}
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue // DFF D-pin edges cross the clock boundary: cut
		}
		for _, f := range g.Fanin {
			if err := comb.Connect(f, g.ID); err != nil {
				return nil, fmt.Errorf("seq: frame of %q: %v", c.Name, err)
			}
		}
	}
	for _, id := range c.Outputs() {
		comb.MarkPO(id)
	}
	flops := c.DFFs()
	fr := &Frame{
		Seq:        c,
		Comb:       comb,
		NumRealPOs: len(c.Outputs()),
		FlopCols:   make([]int, len(flops)),
	}
	for _, id := range flops {
		if n := len(c.Gates[id].Fanin); n != 1 {
			return nil, fmt.Errorf("seq: flop %q has %d D pins, want 1", c.Gates[id].Name, n)
		}
		comb.MarkPO(c.Gates[id].Fanin[0]) // no-op when already a PO
	}
	col := make(map[int]int, len(comb.Outputs()))
	for k, id := range comb.Outputs() {
		col[id] = k
	}
	for fi, id := range flops {
		fr.FlopCols[fi] = col[c.Gates[id].Fanin[0]]
	}
	if err := comb.Validate(); err != nil {
		return nil, fmt.Errorf("seq: frame of %q invalid: %v", c.Name, err)
	}
	cc, err := engine.Compile(comb)
	if err != nil {
		return nil, fmt.Errorf("seq: frame of %q: %v", c.Name, err)
	}
	fr.CC = cc
	return fr, nil
}

// MemoWeight reports the frame's retained size in cache-weight units
// (engine.MemoWeigher): the compiled frame circuit plus everything
// memoized on it (its own sensitization results and electrical
// statics), so a cached sequential handle's weight reflects the whole
// nest.
func (fr *Frame) MemoWeight() int64 { return fr.CC.Weight() }

// frameKey memoizes the compiled frame on the sequential handle.
type frameKey struct{}

// CompiledFrame returns the combinational frame of a compiled
// sequential circuit, memoized on the handle: repeat analyses of one
// handle (a serving tier's warm path) build and compile the frame
// exactly once.
func CompiledFrame(cc *engine.CompiledCircuit) (*Frame, error) {
	v, err := cc.Memo(frameKey{}, func() (any, error) {
		return BuildFrame(cc.Circuit())
	})
	if err != nil {
		return nil, err
	}
	return v.(*Frame), nil
}
