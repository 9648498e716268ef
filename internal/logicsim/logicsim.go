// Package logicsim performs zero-delay logic simulation of a circuit:
// 64-way bit-parallel random-vector evaluation, static signal
// probabilities, and the sensitization probabilities P_ij ("the
// probability that there is at least one path sensitized from output
// of gate i to primary output j") that ASERTA's logical-masking model
// needs. The paper estimates P_ij with zero-delay simulation of 10,000
// random inputs; this package reproduces that with exact bit-parallel
// fault simulation of each gate's fanout cone.
//
// The analysis is built for throughput: all bit-vector state lives in
// flat arenas indexed by gateID*nWords (no per-gate allocations in the
// hot path), fanout cones are precomputed once in levelized order, and
// the per-source-gate sensitization DP — embarrassingly parallel, as
// each source's cone walk is independent — fans out over a worker
// pool. Results are bit-identical to the serial evaluation order for a
// fixed seed regardless of worker count.
package logicsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/stats"
)

// DefaultVectors is the paper's random-vector count for estimating
// sensitization probabilities.
const DefaultVectors = engine.DefaultVectors

// maxConeEntries bounds the memory of the precomputed fanout-cone
// arena (entries are int32 gate IDs). Past the budget the DP falls
// back to scanning the topological suffix per source, which needs no
// arena and produces identical results. (A var so tests can force the
// fallback path.)
var maxConeEntries = 1 << 25

// DefaultSensBudgetBytes bounds the transient working set of one
// scalar sensitization analysis: the base-value arena, the per-edge
// side-input arena and every DP worker's scratch arena together. When
// a circuit × vector-count combination would exceed it, the analysis
// processes the vector set in chunks of 64-vector words through
// recycled arenas — results are bit-identical (popcounts are summed
// across chunks), only peak memory and a per-chunk cone re-walk
// change. The default (2 GiB) keeps every ISCAS-class workload in a
// single chunk; serd exposes it as -sens-mem-budget. It does not
// count the returned Result (the Pij matrix is the analysis' output)
// or the memoized cone arena (bounded separately by maxConeEntries).
var DefaultSensBudgetBytes = int64(2) << 30

// minChunkWords is the smallest chunk width worth paying a cone
// re-walk for; below it the policy sheds DP workers first.
const minChunkWords = 8

// Evaluate computes all gate values for one input vector (indexed by
// ckt.Circuit.Inputs order). The result is indexed by gate ID.
func Evaluate(c *ckt.Circuit, inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.Inputs()) {
		return nil, fmt.Errorf("logicsim: %d inputs for %d PIs", len(inputs), len(c.Inputs()))
	}
	if c.Sequential() {
		return nil, fmt.Errorf("logicsim: circuit %q has flip-flops; use SimulateFrames", c.Name)
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
	// Rows are views into one flat backing array.
	Pij [][]float64

	poCol map[int]int
}

// POColumn returns the Pij column index of a PO gate ID.
func (r *Result) POColumn(poGate int) (int, bool) {
	k, ok := r.poCol[poGate]
	return k, ok
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

// Analyze runs nVectors random vectors (PI probability 0.5, as in the
// paper) and estimates static probabilities and sensitization
// probabilities for every gate, using one DP worker per available CPU.
func Analyze(c *ckt.Circuit, nVectors int, rng *stats.RNG) (*Result, error) {
	return AnalyzeWorkers(c, nVectors, rng, 0)
}

// AnalyzeWorkers is Analyze with an explicit worker count (<= 0 means
// one per available CPU). Results are bit-identical for any count.
// It compiles the circuit on the fly; callers analyzing one netlist
// repeatedly should compile once and use AnalyzeCompiled (or the
// memoized Sensitization).
func AnalyzeWorkers(c *ckt.Circuit, nVectors int, rng *stats.RNG, workers int) (*Result, error) {
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	return AnalyzeCompiled(cc, nVectors, rng, workers)
}

// sensKey memoizes Sensitization results on the compiled handle.
type sensKey struct {
	vectors int
	seed    uint64
}

// conesKey memoizes the fanout-cone CSR arena on the compiled handle.
type conesKey struct{}

// Sensitization returns the sensitization statistics for the compiled
// circuit at the given vector count and seed, memoized on the handle:
// the 10,000-vector simulation — the dominant cost of a warm analysis —
// runs once per (vectors, seed) pair no matter how many analyses share
// the handle, and concurrent callers coalesce on one run. The result
// is bit-identical to Analyze(cc.Circuit(), vectors,
// stats.NewRNG(seed)) and must be treated as read-only.
func Sensitization(cc *engine.CompiledCircuit, vectors int, seed uint64) (*Result, error) {
	if vectors <= 0 {
		vectors = DefaultVectors
	}
	v, err := cc.Memo(sensKey{vectors, seed}, func() (any, error) {
		return AnalyzeCompiled(cc, vectors, stats.NewRNG(seed), 0)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// AnalyzeCompiled is AnalyzeWorkers over a pre-compiled circuit: the
// topological order, fanin-edge offsets and fanout-cone arena come
// from (or are memoized on) the handle instead of being re-derived per
// call. Results are bit-identical to AnalyzeWorkers for any worker
// count. Peak memory is bounded by DefaultSensBudgetBytes; use
// AnalyzeCompiledBudget for an explicit budget.
func AnalyzeCompiled(cc *engine.CompiledCircuit, nVectors int, rng *stats.RNG, workers int) (*Result, error) {
	return AnalyzeCompiledBudget(cc, nVectors, rng, workers, DefaultSensBudgetBytes)
}

// AnalyzeCompiledBudget is AnalyzeCompiled with an explicit transient
// memory budget in bytes (<= 0 means unbounded). The budget covers the
// base-value arena, the per-edge side-input arena and all DP worker
// scratch arenas; when they would exceed it, the vector set is
// processed in chunks of 64-vector words through recycled arenas.
// Because the bit-parallel DP is independent per 64-bit word and the
// per-PO popcounts are integers summed exactly, results are
// bit-identical to the unbounded run for every budget, worker count
// and chunk width — only peak memory and speed change.
func AnalyzeCompiledBudget(cc *engine.CompiledCircuit, nVectors int, rng *stats.RNG, workers int, budgetBytes int64) (*Result, error) {
	c := cc.Circuit()
	if nVectors <= 0 {
		nVectors = DefaultVectors
	}
	if c.Sequential() {
		return nil, fmt.Errorf("logicsim: circuit %q has flip-flops; analyze its combinational frame (seq.BuildFrame) or use SimulateFrames", c.Name)
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
	piW := make([]uint64, len(inputs)*nWords)
	for i := range inputs {
		w := piW[i*nWords : (i+1)*nWords]
		for k := range w {
			w[k] = rng.Uint64()
		}
		w[nWords-1] &= lastMask
	}

	// Source gates: every non-input gate, in topological order.
	sources := make([]int, 0, nGates)
	for _, id := range order {
		if c.Gates[id].Type != ckt.Input {
			sources = append(sources, id) // the paper injects at gate outputs only
		}
	}

	// Chunk policy: the recycled arenas cost (nGates+nEdges)*8 bytes
	// per vector word plus nGates*8 per word for each DP worker's
	// scratch. Shed workers first (a narrow chunk re-walks every cone
	// per chunk, which is the more expensive regression), then narrow
	// the chunk to fit.
	nw := par.Workers(workers)
	if nw > len(sources) {
		nw = len(sources)
	}
	if nw < 1 {
		nw = 1
	}
	cw := nWords
	if budgetBytes > 0 {
		perWord := int64(nGates+nEdges) * 8
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
		poCol:    make(map[int]int),
	}
	pos := c.Outputs()
	nPOs := len(pos)
	for k, id := range pos {
		res.poCol[id] = k
	}
	pijFlat := make([]float64, nGates*nPOs)
	for id := 0; id < nGates; id++ {
		res.Pij[id] = pijFlat[id*nPOs : (id+1)*nPOs]
	}
	p1cnt := make([]int64, nGates)

	maxFanin := 0
	for _, g := range c.Gates {
		if len(g.Fanin) > maxFanin {
			maxFanin = len(g.Fanin)
		}
	}
	in := make([]uint64, maxFanin)

	// Recycled chunk arenas, indexed gateID*cwk (cwk = current chunk
	// width): base values, per-fanin-edge side-input conditions, and
	// one sensitization arena per DP worker.
	base := make([]uint64, nGates*cw)
	sideOK := make([]uint64, nEdges*cw)
	scratches := make([]*dpScratch, nw)
	for i := range scratches {
		scratches[i] = &dpScratch{
			sens: make([]uint64, nGates*cw),
			mark: make([]int, nGates),
		}
		for j := range scratches[i].mark {
			scratches[i].mark[j] = -1
		}
	}

	cones := conesFor(cc, sources, workers)
	var walkers []*coneWalker
	if cones == nil {
		// Past the cone-arena budget each DP worker walks cones on the
		// fly instead (see coneWalker); the walk is re-done per chunk,
		// trading time for bounded memory.
		lv := cc.Levels()
		maxLv := 0
		for _, l := range lv {
			if l > maxLv {
				maxLv = l
			}
		}
		walkers = make([]*coneWalker, nw)
		for i := range walkers {
			walkers[i] = newConeWalker(nGates, lv, maxLv)
		}
	}

	for w0 := 0; w0 < nWords; w0 += cw {
		w1 := w0 + cw
		if w1 > nWords {
			w1 = nWords
		}
		cwk := w1 - w0
		final := w1 == nWords

		// Base simulation for this chunk's vector words. The PI words
		// are copies of the pre-drawn stream, already masked, and in a
		// non-final chunk every bit of every word is a real vector, so
		// masking is only needed on the final chunk's last word.
		for i, id := range inputs {
			copy(base[id*cwk:(id+1)*cwk], piW[i*nWords+w0:i*nWords+w1])
		}
		for _, id := range order {
			g := c.Gates[id]
			if g.Type == ckt.Input {
				continue
			}
			w := base[id*cwk : (id+1)*cwk]
			fin := in[:len(g.Fanin)]
			for k := 0; k < cwk; k++ {
				for fi, f := range g.Fanin {
					fin[fi] = base[f*cwk+k]
				}
				w[k] = g.Type.EvalWord(fin)
			}
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
		// along it carries a non-controlling value. Per vector this is
		// a boolean DP over the fanout cone:
		//
		//	sens(i)    = 1
		//	sens(g)    = OR over fanins f of sens(f) AND sideOK(g, f)
		//	sideOK(g,f)= all inputs of g other than f non-controlling
		//
		// and P_ij = Pr[sens(j)]. (Flip-based fault simulation would
		// also count multi-path cancellation effects, under which the
		// paper's Lemma 1 does not hold; path sensitization is the
		// paper's model.)
		//
		// sideOK depends only on base values, so it is precomputed per
		// fanin edge into a flat edge arena (gates are independent —
		// the fill is parallel and in place, costing no extra memory
		// per worker).
		par.ForChunks(nGates, workers, 0, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				g := c.Gates[id]
				if g.Type == ckt.Input {
					continue
				}
				cv, hasCV := g.Type.ControllingValue()
				for fi := range g.Fanin {
					w := sideOK[(edgeOff[id]+fi)*cwk : (edgeOff[id]+fi+1)*cwk]
					for k := range w {
						ok := ^uint64(0)
						if hasCV {
							for oi, f := range g.Fanin {
								if oi == fi {
									continue
								}
								if cv {
									// Controlling value 1: others must be 0.
									ok &= ^base[f*cwk+k]
								} else {
									ok &= base[f*cwk+k]
								}
							}
						}
						w[k] = ok
					}
					if final {
						w[cwk-1] &= lastMask
					}
				}
			}
		})

		// Per-source DP over this chunk. Popcounts accumulate into the
		// Pij rows as exact float64 integers (≤ nVectors < 2^53); the
		// division happens once, after the last chunk, so the result
		// equals the whole-run popcount divided once — bit-identical
		// to the single-chunk computation.
		par.Each(len(sources), nw, 1, func(worker, lo, hi int) {
			sc := scratches[worker]
			for si := lo; si < hi; si++ {
				fid := sources[si]
				sc.epoch++
				row := sc.sens[fid*cwk : (fid+1)*cwk]
				for k := range row {
					row[k] = ^uint64(0)
				}
				if final {
					row[cwk-1] &= lastMask
				}
				sc.mark[fid] = sc.epoch
				if cones != nil {
					for _, id := range cones.of(si) {
						dpGate(c.Gates[id], int(id), sc, sideOK, edgeOff, cwk)
					}
				} else {
					for _, id := range walkers[worker].cone(c, fid) {
						dpGate(c.Gates[id], int(id), sc, sideOK, edgeOff, cwk)
					}
				}
				out := res.Pij[fid]
				for k2, poID := range pos {
					if poID == fid {
						continue // P_jj set after the chunk loop
					}
					if sc.mark[poID] != sc.epoch {
						continue
					}
					cnt := 0
					for _, w := range sc.sens[poID*cwk : (poID+1)*cwk] {
						cnt += bits.OnesCount64(w)
					}
					out[k2] += float64(cnt)
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
	for i := range pijFlat {
		pijFlat[i] /= nv
	}
	for _, fid := range sources {
		if k, ok := res.poCol[fid]; ok {
			// Paper: "For primary output j, Pjj is 1."
			res.Pij[fid][k] = 1
		}
	}
	return res, nil
}

// dpScratch is one DP worker's private state: a sensitization arena
// and an epoch-marked membership array, both reused across sources so
// the inner loop never allocates.
type dpScratch struct {
	sens  []uint64
	mark  []int
	epoch int
}

// dpGate advances the sensitization DP through one gate: OR together
// each marked fanin's sensitization masked by that edge's side-input
// condition, and mark the gate when any vector survives.
func dpGate(g *ckt.Gate, id int, sc *dpScratch, sideOK []uint64, edgeOff []int, nWords int) {
	inCone := false
	for _, f := range g.Fanin {
		if sc.mark[f] == sc.epoch {
			inCone = true
			break
		}
	}
	if !inCone {
		return
	}
	row := sc.sens[id*nWords : (id+1)*nWords]
	any := uint64(0)
	for k := 0; k < nWords; k++ {
		v := uint64(0)
		for fi, f := range g.Fanin {
			if sc.mark[f] == sc.epoch {
				v |= sc.sens[f*nWords+k] & sideOK[(edgeOff[id]+fi)*nWords+k]
			}
		}
		row[k] = v
		any |= v
	}
	if any != 0 {
		sc.mark[id] = sc.epoch
	}
}

// coneBox wraps the memoized cone arena: the arena is legitimately nil
// past the memory budget, and a typed wrapper keeps that distinct from
// a missing memo value.
type coneBox struct{ cs *coneSet }

// MemoWeight reports the cone arena's retained size in cache-weight
// units (engine.MemoWeigher).
func (b coneBox) MemoWeight() int64 {
	if b.cs == nil {
		return 0
	}
	return int64(len(b.cs.gates)) * 4 / 128
}

// conesFor returns the fanout-cone CSR arena for the compiled circuit,
// memoized on the handle — the arena depends only on the netlist, so
// every sensitization run against one handle shares it. The build is
// deterministic in the netlist regardless of the worker count.
func conesFor(cc *engine.CompiledCircuit, sources []int, workers int) *coneSet {
	v, _ := cc.Memo(conesKey{}, func() (any, error) {
		return coneBox{precomputeCones(cc, sources, workers)}, nil
	})
	return v.(coneBox).cs
}

// coneSet is a CSR arena of precomputed fanout cones: cone i holds the
// non-input gates strictly downstream of sources[i], in topological
// (levelized) order.
type coneSet struct {
	off   []int
	gates []int32
}

func (cs *coneSet) of(i int) []int32 { return cs.gates[cs.off[i]:cs.off[i+1]] }

// coneWalker collects one gate's fanout cone by walking fanout edges —
// work proportional to the cone, not to the whole netlist like the old
// topological-suffix sweep, which is the difference between O(cone)
// and O(gates) per source on million-gate circuits. The collected
// gates are counting-sorted by logic level; level order is a valid
// topological order of the cone (every fanin is at a strictly lower
// level), and the DP result per gate depends only on its fanins'
// results, so any topological processing order yields bit-identical
// results. All state is recycled across calls via epoch marking.
type coneWalker struct {
	lv    []int   // logic level per gate (shared, read-only)
	reach []int32 // epoch marks
	epoch int32
	stack []int32
	buf   []int32 // collected cone, discovery order
	out   []int32 // collected cone, level order
	cnt   []int32 // counting-sort buckets, one per level
}

func newConeWalker(nGates int, lv []int, maxLv int) *coneWalker {
	return &coneWalker{lv: lv, reach: make([]int32, nGates), cnt: make([]int32, maxLv+1)}
}

// cone returns the non-input gates strictly downstream of fid in
// level order. The returned slice is valid until the next call.
func (w *coneWalker) cone(c *ckt.Circuit, fid int) []int32 {
	if w.epoch == 1<<31-1 {
		// Epoch wrap: reset marks so stale epochs can never alias.
		for i := range w.reach {
			w.reach[i] = 0
		}
		w.epoch = 0
	}
	w.epoch++
	ep := w.epoch
	stack := append(w.stack[:0], int32(fid))
	buf := w.buf[:0]
	w.reach[fid] = ep
	minLv, maxLv := int(^uint(0)>>1), -1
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[id].Fanout {
			if w.reach[f] == ep {
				continue
			}
			w.reach[f] = ep
			stack = append(stack, int32(f))
			buf = append(buf, int32(f))
			if l := w.lv[f]; l < minLv {
				minLv = l
			}
			if l := w.lv[f]; l > maxLv {
				maxLv = l
			}
		}
	}
	w.stack, w.buf = stack, buf
	if len(buf) == 0 {
		return buf
	}
	if cap(w.out) < len(buf) {
		w.out = make([]int32, len(buf))
	}
	out := w.out[:len(buf)]
	for _, id := range buf {
		w.cnt[w.lv[id]]++
	}
	sum := int32(0)
	for l := minLv; l <= maxLv; l++ {
		n := w.cnt[l]
		w.cnt[l] = sum
		sum += n
	}
	for _, id := range buf {
		out[w.cnt[w.lv[id]]] = id
		w.cnt[w.lv[id]]++
	}
	for l := minLv; l <= maxLv; l++ {
		w.cnt[l] = 0
	}
	return out
}

// precomputeCones builds the cone arena with a parallel fanout walk
// per source (counting pass, then a fill pass into the shared arena).
// Returns nil when the arena would exceed the memory budget — the
// counting pass aborts as soon as the running total crosses it, so a
// million-gate circuit with huge cones never pays for a full count —
// and callers then fall back to walking cones on the fly.
func precomputeCones(cc *engine.CompiledCircuit, sources []int, workers int) *coneSet {
	c := cc.Circuit()
	n := len(sources)
	if n == 0 {
		return &coneSet{off: make([]int, 1)}
	}
	lv := cc.Levels()
	maxLv := 0
	for _, l := range lv {
		if l > maxLv {
			maxLv = l
		}
	}
	nw := par.Workers(workers)
	walkers := make([]*coneWalker, nw)
	for i := range walkers {
		walkers[i] = newConeWalker(len(c.Gates), lv, maxLv)
	}
	counts := make([]int, n)
	var total atomic.Int64
	var over atomic.Bool
	par.Each(n, nw, 0, func(worker, lo, hi int) {
		w := walkers[worker]
		for si := lo; si < hi; si++ {
			if over.Load() {
				return
			}
			cn := len(w.cone(c, sources[si]))
			counts[si] = cn
			if total.Add(int64(cn)) > int64(maxConeEntries) {
				over.Store(true)
				return
			}
		}
	})
	if over.Load() {
		return nil
	}
	cs := &coneSet{off: make([]int, n+1), gates: make([]int32, total.Load())}
	for i, cn := range counts {
		cs.off[i+1] = cs.off[i] + cn
	}
	par.Each(n, nw, 0, func(worker, lo, hi int) {
		w := walkers[worker]
		for si := lo; si < hi; si++ {
			copy(cs.gates[cs.off[si]:cs.off[si+1]], w.cone(c, sources[si]))
		}
	})
	return cs
}

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
