// Package logicsim performs zero-delay logic simulation of a circuit:
// 64-way bit-parallel random-vector evaluation, static signal
// probabilities, and the sensitization probabilities P_ij ("the
// probability that there is at least one path sensitized from output
// of gate i to primary output j") that ASERTA's logical-masking model
// needs. The paper estimates P_ij with zero-delay simulation of 10,000
// random inputs; this package reproduces that exactly, bit-parallel,
// with one backward observability DP over each primary output's fanin
// cone (every source in the cone is served by that one walk).
//
// The analysis is built for throughput: all bit-vector state lives in
// flat arenas indexed by gateID*nWords (no per-gate allocations in the
// hot path), and the per-PO sensitization DP — embarrassingly
// parallel, as each output's cone walk is independent — fans out over
// a worker pool. Results are bit-identical to the serial evaluation
// order for a fixed seed regardless of worker count.
package logicsim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/stats"
)

// DefaultVectors is the paper's random-vector count for estimating
// sensitization probabilities.
const DefaultVectors = engine.DefaultVectors

// DefaultSensBudgetBytes bounds the transient working set of one
// scalar sensitization analysis: the base-value arena, the side-input
// arena (one row per pin of each AND, NAND, OR and NOR gate) and every
// DP worker's scratch arena together. The analysis processes the
// vector set in chunks of at most maxChunkWords words (64 vectors
// each) through recycled arenas; when a circuit's arenas at that width
// would exceed the budget, the chunks narrow further. Results are
// bit-identical at any width (popcounts are summed across chunks),
// only peak memory and a per-chunk cone re-walk change. At the default
// (2 GiB) no ISCAS-class workload narrows below the 64-word cap; serd
// exposes it as -sens-mem-budget. It does not count the returned
// Result (the Pij matrix is the analysis' output) or the popcount
// arena of the same shape, neither of which depends on the chunk
// width.
//
// The sequential fault chase (strike.LogicalPropagate) sizes its
// fault groups by the same budget: the worst case of a group, every
// live fault differing in every flop, must fit it across the chase's
// workers. At the default every ISCAS-89 circuit runs as one group.
var DefaultSensBudgetBytes = int64(2) << 30

// minChunkWords is the smallest chunk width worth paying a cone
// re-walk for; below it the policy sheds DP workers first.
const minChunkWords = 8

// maxChunkWords caps a chunk at 64 words (4,096 vectors). A chunk
// re-walks every cone, but 64 words amortize the walk, and the arenas
// stay a few MB even on c7552, where one 10,000-vector chunk would
// stream about 24 MB through every call.
const maxChunkWords = 64

// Evaluate computes all gate values for one input vector (indexed by
// ckt.Circuit.Inputs order). The result is indexed by gate ID.
func Evaluate(c *ckt.Circuit, inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.Inputs()) {
		return nil, fmt.Errorf("logicsim: %d inputs for %d PIs", len(inputs), len(c.Inputs()))
	}
	if c.Sequential() {
		return nil, fmt.Errorf("logicsim: circuit %q has flip-flops; use the sequential analysis (seq.AnalyzeCompiledContext, ser.AnalyzeSequential)", c.Name)
	}
	val := make([]bool, len(c.Gates))
	for i, id := range c.Inputs() {
		val[id] = inputs[i]
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	in := make([]bool, 0, 8)
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		in = in[:0]
		for _, f := range g.Fanin {
			in = append(in, val[f])
		}
		val[id] = g.Type.Eval(in)
	}
	return val, nil
}

// Result holds the statistics ASERTA consumes.
type Result struct {
	// N is the number of random vectors simulated.
	N int
	// P1[id] is the static probability of gate id's output being 1.
	P1 []float64
	// Activity[id] is the per-cycle toggle probability 2·p·(1−p)
	// (random consecutive vectors are independent).
	Activity []float64
	// Pij[id][k] is the probability that at least one path from gate
	// id is sensitized to the k-th primary output (k indexes
	// Circuit.Outputs()). For a PO gate itself, P_jj = 1 per the paper.
	// Rows are views into one flat backing array; the column of a PO
	// gate is engine.CompiledCircuit.POColumn.
	Pij [][]float64
}

// MemoWeight reports the result's retained size in cache-weight units
// (engine.MemoWeigher, ~128 bytes per unit): the flat Pij arena
// dominates, so a serving tier's compiled-circuit cache charges
// memoized sensitization results against its budget instead of
// letting seed-cycling clients retain them for free.
func (r *Result) MemoWeight() int64 {
	bytes := int64(len(r.P1)+len(r.Activity)) * 8
	if len(r.Pij) > 0 {
		bytes += int64(len(r.Pij)) * int64(len(r.Pij[0])) * 8
	}
	return bytes / 128
}

// sensKey memoizes Sensitization results on the compiled handle.
type sensKey struct {
	vectors int
	seed    uint64
}

// Sensitization returns the sensitization statistics for the compiled
// circuit at the given vector count and seed, memoized on the handle:
// the 10,000-vector simulation — the dominant cost of a warm analysis —
// runs once per (vectors, seed) pair no matter how many analyses share
// the handle, and concurrent callers coalesce on one run. The result
// is bit-identical to AnalyzeCompiledBudget(cc, vectors,
// stats.NewRNG(seed), 0, DefaultSensBudgetBytes) and must be treated
// as read-only.
func Sensitization(cc *engine.CompiledCircuit, vectors int, seed uint64) (*Result, error) {
	if vectors <= 0 {
		vectors = DefaultVectors
	}
	v, err := cc.Memo(sensKey{vectors, seed}, func() (any, error) {
		return AnalyzeCompiledBudget(cc, vectors, stats.NewRNG(seed), 0, DefaultSensBudgetBytes)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// AnalyzeCompiledBudget runs nVectors random vectors (PI probability
// 0.5, as in the paper) through the compiled circuit and estimates
// static probabilities and sensitization probabilities for every gate,
// with workers DP workers (<= 0 means one per available CPU). The
// topological order, logic levels, PO columns and fanin-edge offsets
// come from the handle. Analyses of one netlist at a fixed vector
// count and seed should share the memoized Sensitization instead.
//
// budgetBytes bounds the transient memory (DefaultSensBudgetBytes is
// the default; <= 0 means no bound beyond the 64-word chunk cap). The
// budget covers the base-value arena, the side-input arena
// (rows for the pins of AND, NAND, OR and NOR gates only) and all DP
// worker scratch arenas; the vector set is processed in chunks of at
// most 64 words, narrower when the arenas would exceed it. The arenas
// are recycled from one call to the next, whatever the circuit, one
// set per concurrent call.
// Because the bit-parallel DP is independent per 64-bit word and the
// per-PO popcounts are integers summed exactly, results are
// bit-identical to the unbounded run for every budget, worker count
// and chunk width — only peak memory and speed change.
func AnalyzeCompiledBudget(cc *engine.CompiledCircuit, nVectors int, rng *stats.RNG, workers int, budgetBytes int64) (*Result, error) {
	ar := arenas.Get()
	res, err := ar.analyze(cc, nVectors, rng, workers, budgetBytes)
	// Not deferred: a panic mid-walk leaves frontier entries queued, so
	// that set is dropped rather than recycled.
	arenas.Put(ar)
	return res, err
}

// analyze is AnalyzeCompiledBudget in the arena set ar, which it
// leaves ready for the next call.
func (ar *sensArena) analyze(cc *engine.CompiledCircuit, nVectors int, rng *stats.RNG, workers int, budgetBytes int64) (*Result, error) {
	c := cc.Circuit()
	if nVectors <= 0 {
		nVectors = DefaultVectors
	}
	if c.Sequential() {
		return nil, fmt.Errorf("logicsim: circuit %q has flip-flops; analyze its combinational frame (seq.BuildFrame) or use the sequential analysis (seq.AnalyzeCompiledContext, ser.AnalyzeSequential)", c.Name)
	}
	order := cc.TopoOrder()
	nGates := len(c.Gates)
	nWords := (nVectors + 63) / 64
	lastMask := ^uint64(0)
	if r := nVectors % 64; r != 0 {
		lastMask = (uint64(1) << uint(r)) - 1
	}
	inputs := c.Inputs()
	edgeOff := cc.FaninEdgeOffsets()
	nEdges := edgeOff[nGates]

	// Pre-draw every primary-input word up front, in Inputs() order:
	// the RNG stream is consumed exactly as the single-chunk
	// implementation consumed it, so the vector set — and therefore
	// every downstream statistic — is independent of the chunking.
	ar.piW = reuse(ar.piW, len(inputs)*nWords)
	piW := ar.piW
	for i := range inputs {
		w := piW[i*nWords : (i+1)*nWords]
		for k := range w {
			w[k] = rng.Uint64()
		}
		w[nWords-1] &= lastMask
	}

	// fanin[e] is the source gate of fanin edge e, or -1 for a primary
	// input, which no strike hits and the DP never pushes to. Only the
	// pins of gates with a controlling value get side-input rows (see
	// the fill below): pin p of gate id has row sideOff[id]+p.
	ar.fanin = reuse(ar.fanin, nEdges)
	ar.sideOff = reuse(ar.sideOff, nGates+1)
	fanin, sideOff := ar.fanin, ar.sideOff
	maxFanin := 0
	sideOff[0] = 0
	for id, g := range c.Gates {
		maxFanin = max(maxFanin, len(g.Fanin))
		for p, f := range g.Fanin {
			if c.Gates[f].Type == ckt.Input {
				f = -1
			}
			fanin[edgeOff[id]+p] = int32(f)
		}
		sideOff[id+1] = sideOff[id]
		if g.Type.HasControllingValue() {
			sideOff[id+1] += int32(len(g.Fanin))
		}
	}
	nSide := int(sideOff[nGates])
	rows := make([][]uint64, maxFanin)

	// Chunk policy: the chunk arenas cost (nGates+nSide)*8 bytes per
	// vector word plus nGates*8 per word for each DP worker's scratch.
	// Shed workers first (a narrow chunk re-walks every cone per chunk,
	// which is the more expensive regression), then narrow the chunk
	// to fit.
	pos := c.Outputs()
	nPOs := len(pos)
	nw := par.Workers(workers)
	if nw > nPOs {
		nw = nPOs
	}
	if nw < 1 {
		nw = 1
	}
	cw := min(nWords, maxChunkWords)
	if budgetBytes > 0 {
		perWord := int64(nGates+nSide) * 8
		perWorkerWord := int64(nGates) * 8
		capFor := func(nw int) int64 {
			if d := perWord + int64(nw)*perWorkerWord; d > 0 {
				return budgetBytes / d
			}
			return int64(nWords)
		}
		for nw > 1 && capFor(nw) < minChunkWords {
			nw--
		}
		if c := capFor(nw); c < int64(cw) {
			cw = int(c)
		}
		if cw < 1 {
			cw = 1
		}
	}

	res := &Result{
		N:        nVectors,
		P1:       make([]float64, nGates),
		Activity: make([]float64, nGates),
		Pij:      make([][]float64, nGates),
	}
	pijFlat := make([]float64, nGates*nPOs)
	for id := 0; id < nGates; id++ {
		res.Pij[id] = pijFlat[id*nPOs : (id+1)*nPOs]
	}
	p1cnt := make([]int64, nGates)

	// Chunk arenas, indexed row*cwk (cwk = current chunk width): base
	// values, side-input conditions and one observability arena per DP
	// worker; and the exact popcounts, PO-major (cnt[k*nGates+id]), so
	// each PO worker adds into rows of its own.
	ar.base = reuse(ar.base, nGates*cw)
	ar.side = reuse(ar.side, nSide*cw)
	ar.cnt = reuse(ar.cnt, nPOs*nGates)
	base, side, cnt := ar.base, ar.side, ar.cnt
	lv := cc.Levels()
	maxLv := 0
	for _, l := range lv {
		if l > maxLv {
			maxLv = l
		}
	}
	for len(ar.dp) < nw {
		ar.dp = append(ar.dp, new(dpScratch))
	}
	for _, sc := range ar.dp[:nw] {
		sc.obs = reuse(sc.obs, nGates*cw)
		sc.mark = reuse(sc.mark, nGates)
		sc.level = reuse(sc.level, maxLv+1)
	}

	for w0 := 0; w0 < nWords; w0 += cw {
		w1 := w0 + cw
		if w1 > nWords {
			w1 = nWords
		}
		cwk := w1 - w0
		final := w1 == nWords

		// Base simulation for this chunk's vector words, one gate row
		// at a time. The PI words are copies of the pre-drawn stream,
		// already masked, and in a non-final chunk every bit of every
		// word is a real vector, so masking is only needed on the final
		// chunk's last word.
		for i, id := range inputs {
			copy(base[id*cwk:(id+1)*cwk], piW[i*nWords+w0:i*nWords+w1])
		}
		for _, id := range order {
			g := c.Gates[id]
			if g.Type == ckt.Input {
				continue
			}
			in := rows[:len(g.Fanin)]
			for p, f := range g.Fanin {
				in[p] = base[f*cwk : (f+1)*cwk]
			}
			w := base[id*cwk : (id+1)*cwk]
			g.Type.EvalRows(w, in)
			if final {
				w[cwk-1] &= lastMask
			}
		}
		for id := 0; id < nGates; id++ {
			ones := 0
			for _, w := range base[id*cwk : (id+1)*cwk] {
				ones += bits.OnesCount64(w)
			}
			p1cnt[id] += int64(ones)
		}

		// Bit-parallel path-sensitization analysis. The paper defines
		// P_ij as "the probability that there is at least one path
		// sensitized from output of gate i to primary output j": a
		// path is sensitized under a vector when every side input
		// along it carries a non-controlling value. (Flip-based fault
		// simulation would also count multi-path cancellation effects,
		// under which the paper's Lemma 1 does not hold; path
		// sensitization is the paper's model.)
		//
		// sideOK(g, f) — all inputs of g other than fanin slot f
		// non-controlling — depends only on base values, so it is
		// precomputed per fanin edge into a flat side arena (gates are
		// independent — the fill is parallel and in place, costing no
		// extra memory per worker). Only gates with a controlling value
		// have rows: for BUF, NOT, XOR and XNOR the condition is all
		// ones, and the DP passes obs through them unmasked. Padding
		// lanes of a side row may be set; the DP only ever ANDs them
		// with obs rows, which are masked at the PO.
		par.Each(nGates, workers, 0, func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				if s0, s1 := int(sideOff[id]), int(sideOff[id+1]); s1 > s0 {
					g := c.Gates[id]
					cv, _ := g.Type.ControllingValue()
					fillSide(side[s0*cwk:s1*cwk], g.Fanin, base, cwk, cv)
				}
			}
		})

		// Per vector, "some path from i to j is sensitized" is the
		// Boolean path sum OR_paths AND_edges sideOK. It factors at
		// either end: forward from i, or backward from j as the
		// observability DP
		//
		//	obs_j(j) = 1
		//	obs_j(f) = OR over fanout edges (f -> g, slot) of
		//	           obs_j(g) AND sideOK(g, slot)
		//
		// with P_ij = Pr[obs_j(i)]. AND and OR on bit lanes are exact,
		// so both directions give the same bits; the backward one
		// walks each PO's fanin cone once and serves every source in
		// it, where the forward one walks a fanout cone per source.
		// The walk pops a frontier bucketed by logic level, highest
		// first: every fanout inside the cone sits at a higher level,
		// so a gate's row is complete when its level comes up. Only
		// gates that some vector reaches are ever queued.
		//
		// Popcounts accumulate as exact integers in PO k's count row,
		// which its worker clears before the first chunk; Pij is
		// written once, after the last chunk, so the result equals the
		// whole-run popcount divided once — bit-identical to the
		// single-chunk computation.
		par.Each(nPOs, nw, 1, func(worker, lo, hi int) {
			sc := ar.dp[worker]
			for k := lo; k < hi; k++ {
				kc := cnt[k*nGates : (k+1)*nGates]
				if w0 == 0 {
					clear(kc)
				}
				poID := pos[k]
				if c.Gates[poID].Type == ckt.Input {
					continue // a PI marked as PO: nothing upstream
				}
				sc.epoch++
				row := sc.obs[poID*cwk : (poID+1)*cwk]
				for w := range row {
					row[w] = ^uint64(0)
				}
				if final {
					row[cwk-1] &= lastMask
				}
				sc.mark[poID] = sc.epoch
				top := lv[poID]
				sc.level[top] = append(sc.level[top], int32(poID))
				for l := top; l > 0; l-- {
					for _, id32 := range sc.level[l] {
						id := int(id32)
						o := sc.obs[id*cwk : (id+1)*cwk]
						if id != poID {
							n := 0
							for _, w := range o {
								n += bits.OnesCount64(w)
							}
							kc[id] += int64(n) // P_jj set after the chunk loop
						}
						masked := c.Gates[id].Type.HasControllingValue()
						sb := int(sideOff[id]) - edgeOff[id] // edge e's side row, if masked
						for e := edgeOff[id]; e < edgeOff[id+1]; e++ {
							f := int(fanin[e])
							if f < 0 {
								continue // strikes hit gate outputs only
							}
							dst := sc.obs[f*cwk : (f+1)*cwk]
							first := sc.mark[f] != sc.epoch
							switch {
							case !masked && first:
								// o is non-zero, or id would not be queued.
								copy(dst, o)
							case !masked:
								orRow(dst, o)
							case first:
								// First push: assign, so the arena never needs
								// clearing between walks, and queue f only if
								// some vector reaches it.
								if !andRow(dst, o, side[(sb+e)*cwk:(sb+e+1)*cwk]) {
									continue
								}
							default:
								orAndRow(dst, o, side[(sb+e)*cwk:(sb+e+1)*cwk])
							}
							if first {
								sc.mark[f] = sc.epoch
								sc.level[lv[f]] = append(sc.level[lv[f]], int32(f))
							}
						}
					}
					sc.level[l] = sc.level[l][:0]
				}
			}
		})
	}

	for id := 0; id < nGates; id++ {
		p := float64(p1cnt[id]) / float64(nVectors)
		res.P1[id] = p
		res.Activity[id] = 2 * p * (1 - p)
	}
	nv := float64(nVectors)
	par.Each(nGates, workers, 0, func(_, lo, hi int) {
		for id := lo; id < hi; id++ {
			row := res.Pij[id]
			for k := range row {
				row[k] = float64(cnt[k*nGates+id]) / nv
			}
		}
	})
	for _, id := range pos {
		if c.Gates[id].Type != ckt.Input {
			// Paper: "For primary output j, Pjj is 1."
			k, _ := cc.POColumn(id)
			res.Pij[id][k] = 1
		}
	}
	return res, nil
}

// fillSide writes the side-input rows of one gate with a controlling
// value: row p of side (k words each) is the AND, over every pin q
// other than p, of pin q's non-controlling condition: its base row
// when the controlling value cv is 0, the complement when cv is 1.
// Prefix ANDs run forward into rows 1..n-1, then a running suffix AND,
// kept in row 0 (whose answer is that suffix alone), folds back into
// them, so the fill costs O(fanin) row passes rather than O(fanin²).
func fillSide(side []uint64, fanin []int, base []uint64, k int, cv bool) {
	n := len(fanin)
	row := func(p int) []uint64 { return side[p*k : (p+1)*k] }
	pin := func(p int) []uint64 { return base[fanin[p]*k : (fanin[p]+1)*k] }
	if n == 1 {
		// A one-pin AND or OR (Validate refuses them, but the kernel
		// does not require validation) has no side input.
		r := row(0)
		for w := range r {
			r[w] = ^uint64(0)
		}
		return
	}
	ncRow(row(1), nil, pin(0), cv)
	for p := 2; p < n; p++ {
		ncRow(row(p), row(p-1), pin(p-1), cv)
	}
	suffix := row(0)
	ncRow(suffix, nil, pin(n-1), cv)
	for p := n - 2; p >= 1; p-- {
		r := row(p)
		for w := range r {
			r[w] &= suffix[w]
		}
		ncRow(suffix, suffix, pin(p), cv)
	}
}

// ncRow sets dst to acc AND the non-controlling condition of pin (pin
// for controlling value 0, its complement for 1); a nil acc is all
// ones. dst may be acc.
func ncRow(dst, acc, pin []uint64, cv bool) {
	pin = pin[:len(dst)]
	switch {
	case acc == nil && cv:
		for w := range dst {
			dst[w] = ^pin[w]
		}
	case acc == nil:
		copy(dst, pin)
	case cv:
		acc = acc[:len(dst)]
		for w := range dst {
			dst[w] = acc[w] &^ pin[w]
		}
	default:
		acc = acc[:len(dst)]
		for w := range dst {
			dst[w] = acc[w] & pin[w]
		}
	}
}

// orRow folds o into dst.
func orRow(dst, o []uint64) {
	o = o[:len(dst)]
	for w := range dst {
		dst[w] |= o[w]
	}
}

// orAndRow folds o AND side into dst.
func orAndRow(dst, o, side []uint64) {
	o, side = o[:len(dst)], side[:len(dst)]
	for w := range dst {
		dst[w] |= o[w] & side[w]
	}
}

// andRow sets dst to o AND side and reports whether any lane is set.
func andRow(dst, o, side []uint64) bool {
	o, side = o[:len(dst)], side[:len(dst)]
	live := uint64(0)
	for w := range dst {
		v := o[w] & side[w]
		dst[w] = v
		live |= v
	}
	return live != 0
}

// dpScratch is one DP worker's private state, reused across POs so
// the inner loop never allocates: the observability arena, the epoch
// marks of the gates holding a valid row in the current walk, and the
// walk's frontier bucketed by logic level. The epoch only grows, also
// from one analysis to the next, so marks left by earlier walks never
// match the current one.
type dpScratch struct {
	obs   []uint64
	mark  []int
	epoch int
	level [][]int32
}

// sensArena is one analysis' working set, recycled through arenas
// across analyses of any circuit, so the kernel stops allocating (and
// the runtime stops zeroing) it on every call; an analysis holds one
// set. Nothing in it is cleared on reuse: every buffer is written
// before it is read, except the popcount rows, which their PO worker
// clears before the first chunk, the marks, which the epoch outgrows,
// and the level buckets, which every walk leaves empty. The buffers
// grow to the largest circuit and chunk a set has served.
type sensArena struct {
	piW        []uint64
	fanin      []int32
	sideOff    []int32
	base, side []uint64
	cnt        []int64
	dp         []*dpScratch
}

// arenas recycles the kernel's arena sets: at most one per analysis
// running at once, given up when no analysis ran through a whole
// garbage-collection cycle.
var arenas par.FreeList[sensArena]

// reuse returns s resliced to n elements, reallocating only when its
// capacity falls short; the contents are not cleared.
func reuse[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// SideSensitization returns S_is: the probability that gate s is
// sensitized to its input from gate i, i.e. all *other* inputs of s
// carry non-controlling values, using the static probabilities in res.
// Gates without a controlling value (XOR/XNOR/NOT/BUF) are always
// sensitized (S=1), as a value change on any input always changes the
// output for fixed other inputs.
func SideSensitization(c *ckt.Circuit, res *Result, i, s int) float64 {
	g := c.Gates[s]
	cv, has := g.Type.ControllingValue()
	if !has {
		return 1
	}
	p := 1.0
	for _, f := range g.Fanin {
		if f == i {
			continue
		}
		pf := res.P1[f]
		if cv {
			// Controlling value is 1: others must be 0.
			p *= 1 - pf
		} else {
			// Controlling value is 0: others must be 1.
			p *= pf
		}
	}
	return p
}
