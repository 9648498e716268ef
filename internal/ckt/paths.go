package ckt

// Path is a sequence of gate IDs from a primary-input pseudo-gate (or
// the first logic gate after it) to a primary-output gate, in circuit
// order. Paths contain logic gates only; the PI pseudo-gate is
// excluded because it has no delay.
type Path []int

// maxPathCount is where path counts saturate, well inside int64.
const maxPathCount = int64(1) << 62

// EnumeratePaths lists PI-to-PO paths through logic gates, up to the
// cap maxPaths (<=0 means unlimited — beware: path counts are
// exponential in circuit depth). When the cap binds, the longest paths
// (most gates) are kept, because SERTOPT's timing wall is set by the
// longest paths.
//
// The candidates are the first maxPaths*overscan paths of a
// depth-first walk: primary inputs in order, each gate's fanout in
// order, a path recorded at every primary output it reaches, none
// through a flop. When more than maxPaths candidates exist, the
// maxPaths longest are kept, longest first with equal lengths in walk
// order; otherwise every candidate is, in walk order.
//
// Only the kept paths are built. Per-gate path counts and length
// histograms (pathStats) give the candidates' lengths without walking
// them, and with those the shortest kept length. A second walk then
// skips every subtree that cannot reach that length, and copies each
// kept path into its final slot of one backing array.
func (c *Circuit) EnumeratePaths(maxPaths int) []Path {
	const overscan = 4
	budget := maxPathCount - 1 // no cap: every unsaturated count
	if maxPaths > 0 {
		budget = int64(maxPaths) * overscan
	}
	st := c.pathStats(budget)
	maxLen := -1
	for _, pi := range c.inputs {
		maxLen = max(maxLen, st.longest[pi])
	}
	if maxLen < 0 {
		return nil
	}

	// byLen[l] counts the candidates of l gates: a subtree whose paths
	// all fit in what is left of the budget adds its histogram whole,
	// and the walk descends only into the one that does not.
	byLen := make([]int64, maxLen+1)
	left := budget
	var countFirst func(id, pre int)
	countFirst = func(id, pre int) {
		if st.count[id] <= left {
			for l, n := range st.hist(id) {
				byLen[pre+l] += n
			}
			left -= st.count[id]
			return
		}
		g := c.Gates[id]
		l := pre
		if g.Type != Input {
			l++
		}
		if g.PO {
			byLen[l]++
			left--
		}
		for _, s := range g.Fanout {
			if left == 0 {
				return
			}
			countFirst(s, l)
		}
	}
	for _, pi := range c.inputs {
		if left == 0 {
			break
		}
		countFirst(pi, 0)
	}

	// keep is the number of paths kept: every candidate, or the longest
	// maxPaths. In the second case every candidate longer than cutLen
	// is kept and the first quota of length cutLen, and slot[l] and
	// pos[l] are the output slot and the backing offset of the next
	// kept path of l gates.
	keep := int(budget - left)
	sorted := maxPaths > 0 && keep > maxPaths
	cut, cutLen, quota := 0, -1, int64(0)
	var slot, pos []int
	total := 0
	if sorted {
		keep = maxPaths
		slot, pos = make([]int, maxLen+1), make([]int, maxLen+1)
		k := 0
		for l := maxLen; k < keep; l-- {
			n := min(byLen[l], int64(keep-k))
			slot[l], pos[l] = k, total
			k += int(n)
			total += int(n) * l
			cut, cutLen, quota = l, l, n
		}
	} else {
		for l, n := range byLen {
			total += int(n) * l
		}
	}

	// The second walk visits only subtrees with a path of at least cut
	// gates, and stops once the last kept path is out.
	out := make([]Path, keep)
	backing := make([]int, total)
	cur := make([]int, maxLen)
	kept, used := 0, 0
	var walk func(id, pre int) bool
	walk = func(id, pre int) bool {
		g := c.Gates[id]
		l := pre
		if g.Type != Input {
			cur[l] = id
			l++
		}
		if g.PO && l >= cut {
			i, at := kept, used
			if sorted {
				i, at = slot[l], pos[l]
				slot[l]++
				pos[l] += l
				if l == cutLen {
					if quota--; quota == 0 {
						cut = cutLen + 1
					}
				}
			} else {
				used += l
			}
			out[i] = backing[at : at+l : at+l]
			copy(out[i], cur[:l])
			if kept++; kept == keep {
				return false
			}
		}
		for _, s := range g.Fanout {
			if st.count[s] > 0 && l+st.longest[s] >= cut && !walk(s, l) {
				return false
			}
		}
		return true
	}
	for _, pi := range c.inputs {
		if st.count[pi] > 0 && st.longest[pi] >= cut && !walk(pi, 0) {
			break
		}
	}
	return out
}

// pathStats describes, for every gate, the paths the depth-first walk
// records from that gate on, each counted from the gate itself (a
// primary input adds no gate).
type pathStats struct {
	// count is their number, saturated at maxPathCount; longest the
	// gates on the longest of them, -1 when there is none.
	count   []int64
	longest []int
	// flat[off[g]+l] counts g's paths of l gates, for every gate with
	// 0 < count[g] <= limit (so the counts are exact).
	flat []int64
	off  []int
}

// pathStats derives every gate's path statistics in one
// reverse-topological pass.
func (c *Circuit) pathStats(limit int64) *pathStats {
	n := len(c.Gates)
	st := &pathStats{count: make([]int64, n), longest: make([]int, n), off: make([]int, n)}
	for i := range st.longest {
		st.longest[i] = -1
	}
	order := c.MustTopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		g := c.Gates[id]
		if g.Type == DFF {
			continue // the walk ends at the flop boundary (next cycle)
		}
		own := 1
		if g.Type == Input {
			own = 0
		}
		count, longest := int64(0), -1
		if g.PO {
			count, longest = 1, own
		}
		for _, s := range g.Fanout {
			if st.count[s] > 0 {
				count = addPathCounts(count, st.count[s])
				longest = max(longest, own+st.longest[s])
			}
		}
		st.count[id], st.longest[id] = count, longest
		if count == 0 || count > limit {
			continue
		}
		at := len(st.flat)
		st.flat = append(st.flat, make([]int64, longest+1)...)
		h := st.flat[at:]
		if g.PO {
			h[own] = 1
		}
		for _, s := range g.Fanout {
			for l, k := range st.hist(s) {
				h[own+l] += k
			}
		}
		st.off[id] = at
	}
	return st
}

// hist returns gate id's path counts by length; it is defined when
// count[id] <= limit, and empty when count[id] is 0.
func (st *pathStats) hist(id int) []int64 {
	return st.flat[st.off[id] : st.off[id]+st.longest[id]+1]
}

// CountPaths returns the exact number of PI->PO paths from the
// per-gate path counts (no enumeration), so it is cheap even when the
// count is astronomically large; the count saturates at maxPathCount
// to avoid overflow.
func (c *Circuit) CountPaths() int64 {
	st := c.pathStats(0)
	var total int64
	for _, pi := range c.inputs {
		total = addPathCounts(total, st.count[pi])
	}
	return total
}

// addPathCounts returns a+b saturated at maxPathCount, for counts
// a, b <= maxPathCount. It compares before it adds, because two
// saturated counts sum past int64.
func addPathCounts(a, b int64) int64 {
	if a > maxPathCount-b {
		return maxPathCount
	}
	return a + b
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
