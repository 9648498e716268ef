package ckt

import "fmt"

// TopoOrder returns gate IDs in topological order of the combinational
// frame (fanin before fanout), frame sources — primary inputs and DFF
// outputs — first. A DFF is a cut point: its D-pin fanin edge crosses
// a clock boundary and does not constrain the order, so a sequential
// circuit orders cleanly even though the full graph is cyclic through
// its flops. TopoOrder returns an error if the netlist contains a
// purely combinational cycle (one not broken by a DFF).
func (c *Circuit) TopoOrder() ([]int, error) {
	n := len(c.Gates)
	indeg := make([]int, n)
	for _, g := range c.Gates {
		if g.Type == DFF {
			continue // frame source: D fanin does not gate the order
		}
		indeg[g.ID] = len(g.Fanin)
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for _, g := range c.Gates {
		if indeg[g.ID] == 0 {
			queue = append(queue, g.ID)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range c.Gates[id].Fanout {
			if c.Gates[s].Type == DFF {
				continue // its indegree was never counted
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("ckt: circuit %q has a combinational cycle (%d of %d gates ordered)", c.Name, len(order), n)
	}
	return order, nil
}

// MustTopoOrder is TopoOrder that panics on cyclic netlists. Use after
// Validate has succeeded.
func (c *Circuit) MustTopoOrder() []int {
	o, err := c.TopoOrder()
	if err != nil {
		panic(err)
	}
	return o
}

// ReverseTopoOrder returns gate IDs with every gate before its fanins
// (POs towards PIs), as required by the ASERTA §3.2 pass and the
// SERTOPT matching pass.
func (c *Circuit) ReverseTopoOrder() ([]int, error) {
	o, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(o)-1; i < j; i, j = i+1, j-1 {
		o[i], o[j] = o[j], o[i]
	}
	return o, nil
}

// Levels assigns each gate its longest distance (in gates) from a
// frame source (primary input or DFF output); sources are level 0.
// The result is indexed by gate ID.
func (c *Circuit) Levels() []int {
	lv := make([]int, len(c.Gates))
	order, err := c.TopoOrder()
	if err != nil {
		// Levels on a cyclic netlist is meaningless; report level 0.
		return lv
	}
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == DFF {
			continue // frame source: level 0 regardless of the D cone
		}
		for _, f := range g.Fanin {
			if lv[f]+1 > lv[id] {
				lv[id] = lv[f] + 1
			}
		}
	}
	return lv
}

// DepthFromPO assigns each gate its shortest distance (in gates) to any
// primary output; PO gates are depth 0. Gates with no path to a PO get
// depth -1. Used for the Fig. 3 "at most five levels deep" filter.
func (c *Circuit) DepthFromPO() []int {
	n := len(c.Gates)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	queue := make([]int, 0, n)
	for _, id := range c.output {
		depth[id] = 0
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if c.Gates[id].Type == DFF {
			continue // the D cone is a different clock cycle
		}
		for _, f := range c.Gates[id].Fanin {
			if depth[f] == -1 {
				depth[f] = depth[id] + 1
				queue = append(queue, f)
			}
		}
	}
	return depth
}
