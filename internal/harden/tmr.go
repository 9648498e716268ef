// Package harden implements the classical structural soft-error
// defenses the paper argues against for commodity parts (§1:
// duplication/triplication "have too high delay, area and power
// overheads"): triple modular redundancy with majority voters. It
// exists as the comparison baseline for SERTOPT — the experiments
// quantify the paper's claim that TMR buys large unreliability
// reductions at multiples of the area/energy budget, while SERTOPT
// trades single-digit overheads for its reduction.
package harden

import (
	"fmt"

	"repro/internal/ckt"
	"repro/internal/strike"
)

// TMRResult carries the transformed circuit and bookkeeping maps.
type TMRResult struct {
	Circuit *ckt.Circuit
	// CopyOf[newGateID] = original gate ID (or -1 for voter gates and
	// PIs).
	CopyOf []int
	// VoterGates lists the IDs of all inserted voter gates.
	VoterGates []int
}

// VoterShare is the hardening flow's configuration of the strike
// pipeline's Reduce output: given the per-gate U contributions of the
// TMR circuit (aserta's Ui vector), it returns the fraction carried by
// the inserted voter gates. With the triplicated copies perfectly
// masked by the majority vote, this is expected to approach 1 — the
// quantitative form of the paper's §1 argument that checker-based
// schemes relocate rather than remove the soft spot.
func (r *TMRResult) VoterShare(ui []float64) float64 {
	return strike.GroupShare(ui, r.VoterGates)
}

// TMR triplicates the combinational logic of c (primary inputs are
// shared, as in standard flip-flop-less combinational TMR) and inserts
// a 2-level AND-OR majority voter at every primary output. The voter
// computes MAJ(a,b,c) = (a∧b) ∨ (b∧c) ∨ (a∧c).
func TMR(c *ckt.Circuit) (*TMRResult, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("harden: input circuit invalid: %v", err)
	}
	if c.Sequential() {
		return nil, fmt.Errorf("harden: circuit %q has flip-flops; TMR supports combinational logic only", c.Name)
	}
	nc := ckt.New(c.Name + "-tmr")
	res := &TMRResult{Circuit: nc}
	copyOf := func(orig int) { res.CopyOf = append(res.CopyOf, orig) }

	// Shared PIs.
	piMap := make(map[int]int)
	for _, pi := range c.Inputs() {
		id := nc.MustAddGate(c.Gates[pi].Name, ckt.Input)
		piMap[pi] = id
		copyOf(-1)
	}

	// Three copies of the logic.
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	gateMap := make([][]int, 3) // gateMap[k][origID] = new ID
	for k := 0; k < 3; k++ {
		gateMap[k] = make([]int, len(c.Gates))
		for i := range gateMap[k] {
			gateMap[k][i] = -1
		}
		for _, id := range order {
			g := c.Gates[id]
			if g.Type == ckt.Input {
				gateMap[k][id] = piMap[id]
				continue
			}
			nid := nc.MustAddGate(fmt.Sprintf("%s_r%d", g.Name, k), g.Type)
			copyOf(id)
			gateMap[k][id] = nid
			for _, f := range g.Fanin {
				nc.MustConnect(gateMap[k][f], nid)
			}
		}
	}

	// Majority voter per original PO.
	for _, po := range c.Outputs() {
		a := gateMap[0][po]
		b := gateMap[1][po]
		d := gateMap[2][po]
		name := c.Gates[po].Name
		and := func(suffix string, x, y int) int {
			id := nc.MustAddGate(fmt.Sprintf("%s_v%s", name, suffix), ckt.And)
			copyOf(-1)
			nc.MustConnect(x, id)
			nc.MustConnect(y, id)
			res.VoterGates = append(res.VoterGates, id)
			return id
		}
		ab := and("ab", a, b)
		bd := and("bc", b, d)
		ad := and("ac", a, d)
		or := nc.MustAddGate(name+"_vmaj", ckt.Or)
		copyOf(-1)
		for _, x := range []int{ab, bd, ad} {
			nc.MustConnect(x, or)
		}
		res.VoterGates = append(res.VoterGates, or)
		nc.MarkPO(or)
	}
	if err := nc.Validate(); err != nil {
		return nil, fmt.Errorf("harden: TMR circuit invalid: %v", err)
	}
	return res, nil
}
