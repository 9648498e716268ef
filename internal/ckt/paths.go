package ckt

// Path is a sequence of gate IDs from a primary-input pseudo-gate (or
// the first logic gate after it) to a primary-output gate, in circuit
// order. Paths contain logic gates only; the PI pseudo-gate is
// excluded because it has no delay.
type Path []int

// EnumeratePaths lists PI-to-PO paths through logic gates, up to the
// cap maxPaths (<=0 means unlimited — beware: path counts are
// exponential in circuit depth). When the cap binds, the longest paths
// (most gates) are kept, because SERTOPT's timing wall is set by the
// longest paths.
//
// The traversal itself is bounded: a depth-first walk that aborts
// branch expansion once maxPaths*overscan candidates are collected,
// then keeps the longest maxPaths of them.
func (c *Circuit) EnumeratePaths(maxPaths int) []Path {
	const overscan = 4
	budget := -1
	if maxPaths > 0 {
		budget = maxPaths * overscan
	}
	out := c.walkPaths(budget)
	if maxPaths > 0 && len(out) > maxPaths {
		out = longestFirst(out, maxPaths)
	}
	return out
}

// walkPaths lists PI-to-PO paths depth-first, in primary-input order,
// stopping once budget of them are collected (budget <= 0: no limit).
func (c *Circuit) walkPaths(budget int) []Path {
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

// longestFirst returns the n longest paths, longest first, with equal
// lengths kept in enumeration order: a stable bucket sort by length,
// the order sort.SliceStable on descending length gives.
func longestFirst(paths []Path, n int) []Path {
	maxLen := 0
	for _, p := range paths {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	// next[l] is the output slot of the next path of length l.
	next := make([]int, maxLen+1)
	for _, p := range paths {
		next[len(p)]++
	}
	slot := 0
	for l := maxLen; l >= 0; l-- {
		next[l], slot = slot, slot+next[l]
	}
	out := make([]Path, n)
	for _, p := range paths {
		if i := next[len(p)]; i < n {
			out[i] = p
		}
		next[len(p)]++
	}
	return out
}

// CountPaths returns the exact number of PI->PO paths using dynamic
// programming over the DAG (no enumeration), so it is cheap even when
// the count is astronomically large; the count saturates at
// maxCount=1<<62 to avoid overflow.
func (c *Circuit) CountPaths() int64 {
	const maxCount = int64(1) << 62
	order := c.MustTopoOrder()
	// count[id] = number of paths from any PI to gate id.
	count := make([]int64, len(c.Gates))
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == Input {
			count[id] = 1
			continue
		}
		if g.Type == DFF {
			// No combinational PI->PO path crosses a flop.
			count[id] = 0
			continue
		}
		var s int64
		for _, f := range g.Fanin {
			s += count[f]
			if s >= maxCount {
				s = maxCount
				break
			}
		}
		count[id] = s
	}
	var total int64
	for _, id := range c.output {
		total += count[id]
		if total >= maxCount {
			return maxCount
		}
	}
	return total
}

// LongestPathGates returns the number of gates on the longest
// structural PI->PO path (the unit-delay critical path length).
func (c *Circuit) LongestPathGates() int {
	lv := c.Levels()
	max := 0
	for _, id := range c.output {
		if lv[id] > max {
			max = lv[id]
		}
	}
	return max
}
