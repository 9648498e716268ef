package ckt

// WalkPaths lists PI-to-PO paths depth-first, in primary-input order,
// stopping once budget of them are collected (budget <= 0: no limit).
// It is the literal walk whose first 4·maxPaths paths EnumeratePaths
// chooses from, kept as the reference the tests compare against; it
// is exported to the external ckt_test package, which needs the
// netlist generators in internal/gen (an import cycle from package
// ckt).
func (c *Circuit) WalkPaths(budget int) []Path {
	var out []Path
	var walk func(id int, cur []int) bool
	walk = func(id int, cur []int) bool {
		g := c.Gates[id]
		if g.Type == DFF {
			return true // the path ends at the flop boundary (next cycle)
		}
		if g.Type != Input {
			cur = append(cur, id)
		}
		if g.PO {
			p := make(Path, len(cur))
			copy(p, cur)
			out = append(out, p)
			if budget > 0 && len(out) >= budget {
				return false
			}
			// A PO gate may still feed further logic in general
			// netlists; ISCAS-85 POs do not, but keep walking to stay
			// correct for arbitrary DAGs.
		}
		for _, s := range g.Fanout {
			if !walk(s, cur) {
				return false
			}
		}
		return true
	}
	for _, pi := range c.inputs {
		if !walk(pi, nil) {
			break
		}
	}
	return out
}
