package strike

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/lut"
	"repro/internal/par"
)

// Attenuate applies the paper's Equation 1: a glitch of width wi
// passing a gate of delay d emerges with width 0 (wi < d),
// 2(wi−d) (d ≤ wi ≤ 2d), or wi (wi > 2d).
func Attenuate(wi, d float64) float64 {
	switch {
	case wi < d:
		return 0
	case wi <= 2*d:
		return 2 * (wi - d)
	default:
		return wi
	}
}

// Propagator is the ElectricalFilter stage: the §3.2
// reverse-topological computation of expected PO glitch widths W_ij
// under Eq. 1 attenuation and the Eq. 2 π-split, over a fixed sample
// glitch-width ladder. A Propagator is built once per analysis from
// the netlist-derived statics (the (gate, PO) pairs with P_ij ≠ 0,
// their Eq. 2 denominators and successor lists) and the prepared
// interpolation of each gate's generated width, and then Run for any
// per-gate delay vector.
//
// Run is deterministic and parallel over PO columns. It keeps its
// per-call state in recycled scratch, so Runs on one Propagator may
// overlap; a Delta built on it is not safe for concurrent use.
type Propagator struct {
	c      *ckt.Circuit
	rorder []int
	// samples is the §3.2 sample-width ladder ws_k.
	samples []float64
	st      *elecStatics
	// gen is the step (iv) input of the widths the Propagator was built
	// for.
	gen genTable

	nPOs int
}

// genTable is the §3.2 step (iv) input: every gate's generated width
// w_i and, for the gates with pairs, its prepared interpolation on the
// sample ladder.
type genTable struct {
	width []float64
	idx   []int32
	frac  []float64
}

// widthAt is pair pr's step (iv): the expected width W_ij for the
// gate's generated width, read off the pair's step (iii) row. A PO's own
// column presents the generated width itself, and a pair with a zero
// Eq. 2 denominator contributes nothing.
func (g *genTable) widthAt(pr *elecPair, row []float64) float64 {
	switch {
	case pr.own:
		return g.width[pr.gate]
	case pr.den == 0:
		return 0
	}
	return lut.ApplyInterp1D(row, int(g.idx[pr.gate]), g.frac[pr.gate])
}

// elecStatics are the sens-derived electrical statics: the (gate, PO)
// pairs a glitch can reach — the gates with P_ij ≠ 0 in each column,
// plus each PO's own column — with their Eq. 2 denominators and their
// successors. They depend only on the netlist and the sensitization
// statistics, never on the cell assignment, so they are memoized on
// the compiled handle and shared by every warm analysis at the same
// (vectors, seed).
type elecStatics struct {
	// pairs lists the pairs column by column, each column in reverse
	// topological order: column j's are pairs[colOff[j]:colOff[j+1]].
	// A pair's index is also its row in a compact WS arena.
	pairs  []elecPair
	colOff []int32
	// Pair q's successors with P_sj ≠ 0, in fanout order, are
	// succs[succOff[q]:succOff[q+1]].
	succOff []int32
	succs   []elecSucc
	// gatePairs is the gate-major index: gate i's pairs, in column
	// order, are gatePairs[gateOff[i]:gateOff[i+1]].
	gateOff   []int32
	gatePairs []int32
	// attGates are the gates read as successors, one attenuation row
	// each in this order; attRow maps a gate to its row, or -1.
	attGates []int32
	attRow   []int32
}

// elecPair is one (gate, PO) pair of the pass.
type elecPair struct {
	gate, col int32
	// pij is P_ij and den the Eq. 2 denominator Σ_s S_is·P_sj over the
	// gate's fanout.
	pij, den float64
	// own marks a PO's own column, whose row is the sample ladder.
	own bool
}

// elecSucc is one successor read of a pair: the successor's pair in
// the same column, its attenuation row and the edge's side
// sensitization S_is.
type elecSucc struct {
	pair, att int32
	sis       float64
}

// MemoWeight reports the statics' retained size in cache-weight units
// (engine.MemoWeigher): the pair, successor, index and
// attenuation-set arrays.
func (s *elecStatics) MemoWeight() int64 {
	bytes := int64(len(s.pairs))*int64(unsafe.Sizeof(elecPair{})) +
		int64(len(s.succs))*int64(unsafe.Sizeof(elecSucc{})) +
		4*int64(len(s.colOff)+len(s.succOff)+len(s.gateOff)+len(s.gatePairs)+len(s.attGates)+len(s.attRow))
	return bytes / 128
}

// elecKey memoizes elecStatics on the compiled handle, keyed by the
// identity of the sensitization result they were derived from (one
// entry per live (vectors, seed) result).
type elecKey struct{ sens *logicsim.Result }

// staticsFor returns the memoized sens-derived statics for the handle.
func staticsFor(cc *engine.CompiledCircuit, sens *logicsim.Result) *elecStatics {
	v, _ := cc.Memo(elecKey{sens}, func() (any, error) {
		return buildStatics(cc, sens), nil
	})
	return v.(*elecStatics)
}

// buildStatics derives the pair lists in two parallel passes, each
// writing only slots of its own, with one serial walk of the edges and
// prefix sums between them. The first pass, over blocks of 64
// positions of the reverse topological order, computes every side
// sensitization and marks each gate's pair columns twice: per gate
// (has) and per column, by position (colHas). The edge walk counts each
// column's successor reads and finds the gates read as successors. The
// second pass walks each column's pairs in reverse topological order,
// placing them and filling their denominators and successor lists; a
// successor's pair in the column was placed earlier in the same walk.
func buildStatics(cc *engine.CompiledCircuit, sens *logicsim.Result) *elecStatics {
	c := cc.Circuit()
	nGates := len(c.Gates)
	nPOs := len(c.Outputs())
	rorder := cc.ReverseTopoOrder()
	foutOff := cc.FanoutOffsets()
	words, posWords := (nPOs+63)/64, (nGates+63)/64
	// has[i*words:(i+1)*words] marks gate i's pair columns, and
	// colHas[j*posWords:(j+1)*posWords] column j's gates by position in
	// rorder. P_jj = 1 on every logic PO, so for a gate read as a
	// successor a set bit is exactly P_sj ≠ 0.
	has := make([]uint64, nGates*words)
	colHas := make([]uint64, nPOs*posWords)
	// fan and sis hold each gate's fanout and its side sensitizations
	// at foutOff[i]:foutOff[i+1], flat for the column walks.
	fan := make([]int32, foutOff[nGates])
	sis := make([]float64, foutOff[nGates])
	ownCol := func(i int) int {
		if j, ok := cc.POColumn(i); ok {
			return j
		}
		return -1
	}
	st := &elecStatics{
		colOff:  make([]int32, nPOs+1),
		gateOff: make([]int32, nGates+1),
		attRow:  make([]int32, nGates),
	}
	nw := par.Workers(0)

	// Whole 64-position blocks, so that each owns its words of colHas.
	par.Each(nGates, nw, 64*max(1, (posWords+4*nw-1)/(4*nw)), func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			i := rorder[pos]
			g := c.Gates[i]
			if g.Type.IsSource() {
				continue
			}
			for si, s := range g.Fanout {
				fan[foutOff[i]+si] = int32(s)
				sis[foutOff[i]+si] = logicsim.SideSensitization(c, sens, i, s)
			}
			pij := sens.Pij[i]
			row := has[i*words : (i+1)*words]
			for w := range row {
				var word uint64
				for k, p := range pij[w*64 : min(w*64+64, nPOs)] {
					var b uint64
					if p != 0 {
						b = 1
					}
					word |= b << k
				}
				row[w] = word
			}
			if own := ownCol(i); own >= 0 {
				row[own/64] |= 1 << (own % 64)
			}
			n := 0
			for w, word := range row {
				n += bits.OnesCount64(word)
				for ; word != 0; word &= word - 1 {
					j := w*64 + bits.TrailingZeros64(word)
					colHas[j*posWords+pos/64] |= 1 << (pos % 64)
				}
			}
			st.gateOff[i+1] = int32(n)
		}
	})
	for i := 0; i < nGates; i++ {
		st.gateOff[i+1] += st.gateOff[i]
	}

	// One walk of the edges counts each column's successor reads and
	// marks the gates read as successors: s is read over edge (i, s)
	// in the columns where i has a pair outside its own column and s
	// has one too.
	colSuccs := make([]int32, nPOs+1)
	for i := range st.attRow {
		st.attRow[i] = -1
	}
	for i, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		mine := has[i*words : (i+1)*words]
		own := ownCol(i)
		for _, s := range g.Fanout {
			for w, m := range mine {
				if own >= 0 && own/64 == w {
					m &^= 1 << (own % 64)
				}
				m &= has[s*words+w]
				if m != 0 {
					st.attRow[s] = 0
				}
				for ; m != 0; m &= m - 1 {
					colSuccs[w*64+bits.TrailingZeros64(m)+1]++
				}
			}
		}
	}
	for i, r := range st.attRow {
		if r == 0 {
			st.attRow[i] = int32(len(st.attGates))
			st.attGates = append(st.attGates, int32(i))
		}
	}
	for j := 0; j < nPOs; j++ {
		n := int32(0)
		for _, word := range colHas[j*posWords : (j+1)*posWords] {
			n += int32(bits.OnesCount64(word))
		}
		st.colOff[j+1] = st.colOff[j] + n
		colSuccs[j+1] += colSuccs[j]
	}
	nPairs := st.colOff[nPOs]
	st.pairs = make([]elecPair, nPairs)
	st.gatePairs = make([]int32, nPairs)
	st.succOff = make([]int32, nPairs+1)
	st.succOff[nPairs] = colSuccs[nPOs]
	st.succs = make([]elecSucc, colSuccs[nPOs])

	// pairOf[w*nGates+s] is worker w's pair of gate s in the column it
	// is walking.
	pairOf := make([]int32, nw*nGates)
	par.Each(nPOs, nw, 1, func(w, jLo, jHi int) {
		at := pairOf[w*nGates : (w+1)*nGates]
		for j := jLo; j < jHi; j++ {
			q, e := st.colOff[j], colSuccs[j]
			for wi, word := range colHas[j*posWords : (j+1)*posWords] {
				for ; word != 0; word &= word - 1 {
					i := rorder[wi*64+bits.TrailingZeros64(word)]
					at[i] = q
					st.gatePairs[st.gateOff[i]+rankBelow(has[i*words:(i+1)*words], j)] = q
					st.succOff[q] = e
					pr := &st.pairs[q]
					q++
					pr.gate, pr.col = int32(i), int32(j)
					if j == ownCol(i) {
						// Step (ii): a PO gate presents the glitch
						// directly at its own column.
						pr.own = true
						continue
					}
					// π_isj = S_is · P_ij / Σ_k S_ik · P_kj  (Eq. 2), which
					// satisfies the paper's normalization
					// Σ_s π_isj · P_sj = P_ij. The denominator is
					// delay-independent, so it is computed once here. A
					// successor with P_sj = 0 adds +0, which leaves the sum
					// unchanged, so only the read successors are summed.
					pr.pij = sens.Pij[i][j]
					den := 0.0
					for e0 := foutOff[i]; e0 < foutOff[i+1]; e0++ {
						s := fan[e0]
						if has[int(s)*words+j/64]>>(j%64)&1 == 0 {
							continue
						}
						den += sis[e0] * sens.Pij[s][j]
						st.succs[e] = elecSucc{pair: at[s], att: st.attRow[s], sis: sis[e0]}
						e++
					}
					pr.den = den
				}
			}
		}
	})
	return st
}

// rankBelow counts the set bits of row below bit j.
func rankBelow(row []uint64, j int) int32 {
	n := bits.OnesCount64(row[j/64] & (1<<(j%64) - 1))
	for _, w := range row[:j/64] {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// NewPropagator builds the electrical-filter statics for a compiled
// circuit, its sensitization statistics, the per-gate generated glitch
// widths and the sample ladder. The sens-derived statics (the pair
// lists with their denominators and side sensitizations) are memoized
// on the handle, so a warm analysis only pays for the interpolation of
// each gate's generated width.
func NewPropagator(cc *engine.CompiledCircuit, sens *logicsim.Result, genWidth, samples []float64) *Propagator {
	c := cc.Circuit()
	st := staticsFor(cc, sens)
	nGates := len(c.Gates)
	p := &Propagator{
		c:       c,
		rorder:  cc.ReverseTopoOrder(),
		samples: samples,
		st:      st,
		gen: genTable{
			width: genWidth,
			idx:   make([]int32, nGates),
			frac:  make([]float64, nGates),
		},
		nPOs: len(c.Outputs()),
	}
	for i := 0; i < nGates; i++ {
		if p.hasPairs(i) {
			p.gen.prep(p.samples, i, genWidth[i])
		}
	}
	return p
}

// hasPairs reports whether gate i has a (gate, PO) pair; a gate without
// one reaches no PO, so its W_ij row is zero under any sources.
func (p *Propagator) hasPairs(i int) bool { return p.st.gateOff[i] != p.st.gateOff[i+1] }

// prep prepares gate i's step (iv) interpolation for width w.
func (g *genTable) prep(samples []float64, i int, w float64) {
	gi, gf := lut.PrepInterp1D(samples, w)
	g.idx[i], g.frac[i] = int32(gi), gf
}

// Pairs reports how many (gate, PO) pairs the pass keeps a row for: a
// compact WS table holds Pairs()·K floats, K the ladder's length.
func (p *Propagator) Pairs() int { return len(p.st.pairs) }

// attTable holds, per gate read as a successor and sample index k, the
// prepared interpolation of the Eq. 1-attenuated width
// Attenuate(ws[k], d) on the sample ladder, row after row in attGates
// order. idx -2 marks a fully masked glitch (wo <= 0), which
// contributes nothing.
type attTable struct {
	idx  []int32
	frac []float64
}

// prepAtten sizes t and fills every row for the delay vector.
func (p *Propagator) prepAtten(t *attTable, delays []float64) {
	n := len(p.st.attGates) * len(p.samples)
	t.idx = slices.Grow(t.idx[:0], n)[:n]
	t.frac = slices.Grow(t.frac[:0], n)[:n]
	for r, s := range p.st.attGates {
		p.prepAttenRow(t, r, delays[s])
	}
}

// prepAttenRow fills attenuation row r for delay d.
func (p *Propagator) prepAttenRow(t *attTable, r int, d float64) {
	ws := p.samples
	K := len(ws)
	idx, frac := t.idx[r*K:(r+1)*K], t.frac[r*K:(r+1)*K]
	for k, w := range ws {
		wo := Attenuate(w, d)
		if wo <= 0 {
			idx[k] = -2
			continue
		}
		i, f := lut.PrepInterp1D(ws, wo)
		idx[k] = int32(i)
		frac[k] = f
	}
}

// pairRow evaluates pair q's §3.2 step (iii) row into ws and returns
// its step (iv) expected width W_ij for the generated widths in gen.
// Successor rows are read from ws, except that when affected is non-nil
// the rows of unaffected successors come from base (the incremental
// delta evaluation). att holds the attenuation rows for the delays under
// evaluation. The accumulation order (ascending successor index per
// sample, then P_ij·acc/den) is the serial pass's, so results are
// bit-identical to it.
func (p *Propagator) pairRow(q int, ws, base []float64, affected []bool, att *attTable, gen *genTable) float64 {
	st := p.st
	pr := &st.pairs[q]
	K := len(p.samples)
	row := ws[q*K : (q+1)*K]
	if pr.own {
		copy(row, p.samples)
		return gen.widthAt(pr, row)
	}
	clear(row)
	if pr.den == 0 {
		// Reachable but with a zero Eq. 2 denominator (every side
		// sensitization vanished): the glitch contributes nothing, but
		// predecessors read this row, so it holds zeros.
		return gen.widthAt(pr, row)
	}
	for _, e := range st.succs[st.succOff[q]:st.succOff[q+1]] {
		src := ws
		if affected != nil && !affected[st.pairs[e.pair].gate] {
			src = base
		}
		sj := src[int(e.pair)*K : int(e.pair+1)*K]
		a := int(e.att) * K
		idx, frac := att.idx[a:a+K], att.frac[a:a+K]
		for k := range row {
			i := idx[k]
			if i == -2 {
				continue
			}
			// WE_sjk: interpolate successor s's row at the attenuated
			// width (§3.2 step iii), via the prepared coefficients.
			var v float64
			if f := frac[k]; f < 0 {
				v = sj[i]
			} else {
				v = sj[i] + f*(sj[i+1]-sj[i])
			}
			row[k] += e.sis * v
		}
	}
	for k := range row {
		row[k] = pr.pij * row[k] / pr.den
	}
	// Step (iv): expected width for the actual generated glitch width.
	return gen.widthAt(pr, row)
}

// elecScratch is one Run's recycled working set: the compact WS arena
// (a Run without wsDst) and the attenuation table.
type elecScratch struct {
	ws  []float64
	att attTable
}

// elecScratches recycles elecScratch sets across Runs of any circuit,
// at most one per Run in flight at once, so the pass stops allocating
// (and the runtime stops zeroing) its arenas on every analysis. Sets
// are reused un-zeroed: the pass writes every row before reading it.
var elecScratches par.FreeList[elecScratch]

// Run executes the full reverse-topological pass for the given delay
// vector and the widths the Propagator was built for. Only the pairs
// are visited: the columns fan out over workers, and each column's pairs
// are evaluated in reverse topological order, so a pair's successors are
// ready before it and the parallel result is identical to the serial
// one.
//
// wsDst, when not nil, receives the compact WS table (Pairs()·K
// floats, row q for pair q; DenseWS expands it); otherwise the pass
// works in a recycled arena. Every pair's row is written, so neither
// needs zeroing. wijDst (nGates·nPOs), when not nil, receives W_ij at
// every pair's entry and nothing else: it must be zero outside those
// entries, as a fresh table is and as one stays that only Run writes.
func (p *Propagator) Run(delays, wsDst, wijDst []float64) {
	p.run(delays, &p.gen, wsDst, wijDst)
}

// run is Run for the generated widths in gen.
func (p *Propagator) run(delays []float64, gen *genTable, wsDst, wijDst []float64) {
	st := p.st
	sc := elecScratches.Get()
	defer elecScratches.Put(sc)
	p.prepAtten(&sc.att, delays)
	ws := wsDst
	if ws == nil {
		n := len(st.pairs) * len(p.samples)
		sc.ws = slices.Grow(sc.ws[:0], n)[:n]
		ws = sc.ws
	}
	par.Each(p.nPOs, 0, 1, func(_, jLo, jHi int) {
		for q := int(st.colOff[jLo]); q < int(st.colOff[jHi]); q++ {
			w := p.pairRow(q, ws, nil, nil, &sc.att, gen)
			if wijDst != nil {
				pr := &st.pairs[q]
				wijDst[int(pr.gate)*p.nPOs+int(pr.col)] = w
			}
		}
	})
}

// DenseWS expands a compact WS table (Run's wsDst, or BaseWS) into the
// dense nGates·nPOs·K layout: row (i, j) at (i*nPOs+j)*K, zero where
// the pass keeps no row.
func (p *Propagator) DenseWS(ws []float64) []float64 {
	K := len(p.samples)
	dense := make([]float64, len(p.c.Gates)*p.nPOs*K)
	for q, pr := range p.st.pairs {
		r := (int(pr.gate)*p.nPOs + int(pr.col)) * K
		copy(dense[r:r+K], ws[q*K:(q+1)*K])
	}
	return dense
}

// Delta is the incremental configuration of the pipeline: it evaluates
// the circuit unreliability U for sources that differ from the
// baseline's (another delay vector, other generated widths, other flux
// weights) by re-doing only what the differences reach, and returns
// what the full pass and Reduce return on those sources, bit for bit:
//
//   - a gate in the fanin cone of a gate whose delay changed (affected)
//     re-propagates its pairs' step (iii) rows, reading the rows of
//     unaffected successors from the compact baseline WS table, since a
//     row depends only on its successors' rows and delays;
//   - any other gate whose generated width changed re-interpolates its
//     baseline rows (step iv);
//   - any other gate whose flux weight alone changed re-reduces its
//     baseline W_ij row;
//   - every other gate keeps its baseline U_i;
//
// and the U_i are summed in netlist order, Reduce's order. When the
// affected gates are more than half of all gates, the parallel full pass
// (RecomputeFull) runs instead. Every call starts from the baseline, so
// error cannot accumulate across calls. This is the optimizer's
// candidate scorer and delay-sensitivity oracle. Not safe for
// concurrent use (shared scratch arenas).
type Delta struct {
	p *Propagator
	// Baseline state (owned by the caller, read-only here): the sources
	// the Propagator was built for and ran on, the W_ij table (nGates·nPOs)
	// and U_i that Run and Reduce derived from them, and the clock
	// period of the Eq. 3 window clamp.
	base    *Sources
	baseWij []float64
	baseUi  []float64
	clock   float64
	// baseWS is the baseline's compact WS table, built once by BaseWS.
	baseWS []float64
	wsOnce sync.Once

	// Per-call scratch: the incremental compact WS arena, the full
	// pass's W_ij table, one gate's W_ij row, the affected/changed sets
	// and the gates whose flux weight alone changed.
	incrWS, incrWij, row []float64
	affected             []bool
	changed              []bool
	changedIDs           []int
	fluxIDs              []int
	// att holds the attenuation rows at the baseline delays, except
	// the rows of the gates in attDirty, which the previous call
	// prepared at its own delays. gen's interpolations and ui hold the
	// baseline's step (iv) input and U_i the same way, except at the
	// gates in genDirty and uiDirty; gen's widths are the last call's.
	att      attTable
	attDirty []int
	gen      genTable
	genDirty []int
	ui       []float64
	uiDirty  []int
}

// NewDelta creates the incremental evaluator for the baseline the
// Propagator was built for: base holds the sources (its GenWidth the
// Propagator's widths), baseWij the W_ij table Run(base.Delays, …)
// wrote, and baseUi the Eq. 3 contributions Reduce derived from it at
// the clock period clock.
func (p *Propagator) NewDelta(base *Sources, baseWij, baseUi []float64, clock float64) *Delta {
	return &Delta{
		p:       p,
		base:    base,
		baseWij: baseWij,
		baseUi:  baseUi,
		clock:   clock,
	}
}

// BaseWS returns the baseline's compact WS table (row q for pair q,
// Pairs()·K floats; Propagator.DenseWS expands it). The first call
// builds it by re-running the pass at the baseline delays; later
// calls, and the incremental path, share that one table. Safe for
// concurrent callers.
func (d *Delta) BaseWS() []float64 {
	d.wsOnce.Do(func() {
		p := d.p
		ws := make([]float64, len(p.st.pairs)*len(p.samples))
		p.Run(d.base.Delays, ws, nil)
		d.baseWS = ws
	})
	return d.baseWS
}

// Recompute returns U for the per-gate delays, generated widths and
// flux weights given, each indexed by gate ID, with the sensitization
// statistics fixed: exactly the U of the full pass and Reduce on them.
// Only the pairs of gates in the fanin cones of gates whose delays
// differ from the baseline are re-propagated; when those gates are more
// than half of all gates, the parallel full pass (RecomputeFull) runs
// instead.
func (d *Delta) Recompute(delays, genWidth, flux []float64) float64 {
	p := d.p
	c := p.c
	st := p.st
	nGates := len(c.Gates)
	if d.changed == nil {
		d.changed = make([]bool, nGates)
		d.affected = make([]bool, nGates)
		d.ui = slices.Clone(d.baseUi)
	}
	d.prepGen(genWidth)
	changedIDs, fluxIDs := d.changedIDs[:0], d.fluxIDs[:0]
	for _, g := range c.Gates {
		i := g.ID
		ch := !g.Type.IsSource() && delays[i] != d.base.Delays[i]
		d.changed[i] = ch
		if ch {
			changedIDs = append(changedIDs, i)
		}
		if p.hasPairs(i) && flux[i] != d.base.Flux[i] && genWidth[i] == d.base.GenWidth[i] {
			fluxIDs = append(fluxIDs, i)
		}
	}
	d.changedIDs, d.fluxIDs = changedIDs, fluxIDs
	// affected(i) = some successor's delay changed, or some successor
	// is itself affected; one reverse-topological pass. Terminal PO
	// gates are never affected (no successors): their only row is the
	// fixed sample ladder regardless of delays, so they serve baseline
	// reads. A fanout-bearing PO (a sequential frame's D-pin tap) has
	// delay-dependent non-own columns and propagates normally.
	nAffected := 0
	for _, i := range p.rorder {
		aff := false
		for _, s := range c.Gates[i].Fanout {
			if d.changed[s] || d.affected[s] {
				aff = true
				break
			}
		}
		d.affected[i] = aff
		if aff {
			nAffected++
		}
	}
	// When most of the circuit moved, the parallel full pass is cheaper
	// than the serial delta walk.
	if 2*nAffected > nGates {
		return d.full(delays, flux)
	}
	// The baseline table serves the rows of unaffected successors and
	// of the gates whose width alone changed.
	baseWS := d.BaseWS()
	K := len(p.samples)
	if d.incrWS == nil {
		d.incrWS = make([]float64, len(st.pairs)*K)
		d.row = make([]float64, p.nPOs)
		p.prepAtten(&d.att, d.base.Delays)
	}
	// Refresh only the attenuation rows that differ from the baseline
	// table: restore the rows the previous call dirtied, then prepare
	// the rows of this call's changed gates that are read as
	// successors.
	for _, id := range d.attDirty {
		p.prepAttenRow(&d.att, int(st.attRow[id]), d.base.Delays[id])
	}
	d.attDirty = d.attDirty[:0]
	for _, id := range changedIDs {
		if r := st.attRow[id]; r >= 0 {
			p.prepAttenRow(&d.att, int(r), delays[id])
			d.attDirty = append(d.attDirty, id)
		}
	}
	for _, i := range d.uiDirty {
		d.ui[i] = d.baseUi[i]
	}
	d.uiDirty = d.uiDirty[:0]
	for _, i := range p.rorder {
		if !d.affected[i] || c.Gates[i].Type.IsSource() {
			// Source pseudo-gates carry no pairs. (Terminal POs never
			// appear here — they have no successors, so they are never
			// affected; fanout-bearing POs recompute every pair,
			// their own column's ladder included.)
			continue
		}
		clear(d.row)
		for _, q := range st.gatePairs[st.gateOff[i]:st.gateOff[i+1]] {
			d.row[st.pairs[q].col] = p.pairRow(int(q), d.incrWS, baseWS, d.affected, &d.att, &d.gen)
		}
		d.setUi(i, GateU(flux[i], d.row, d.clock))
	}
	for _, i := range d.genDirty {
		if d.affected[i] {
			continue
		}
		clear(d.row)
		for _, q := range st.gatePairs[st.gateOff[i]:st.gateOff[i+1]] {
			pr := &st.pairs[q]
			d.row[pr.col] = d.gen.widthAt(pr, baseWS[int(q)*K:int(q+1)*K])
		}
		d.setUi(i, GateU(flux[i], d.row, d.clock))
	}
	for _, i := range fluxIDs {
		if !d.affected[i] {
			d.setUi(i, GateU(flux[i], d.baseWij[i*p.nPOs:(i+1)*p.nPOs], d.clock))
		}
	}
	u := 0.0
	for _, g := range c.Gates {
		if !g.Type.IsSource() {
			u += d.ui[g.ID]
		}
	}
	return u
}

// setUi records gate i's U_i for this call.
func (d *Delta) setUi(i int, u float64) {
	d.ui[i] = u
	d.uiDirty = append(d.uiDirty, i)
}

// prepGen points the step (iv) table at genWidth: it restores the
// entries the previous call prepared, then prepares those of the gates
// with pairs whose width differs from the baseline's, listing them in
// genDirty.
func (d *Delta) prepGen(genWidth []float64) {
	p := d.p
	if d.gen.idx == nil {
		d.gen.idx, d.gen.frac = slices.Clone(p.gen.idx), slices.Clone(p.gen.frac)
	}
	for _, i := range d.genDirty {
		d.gen.idx[i], d.gen.frac[i] = p.gen.idx[i], p.gen.frac[i]
	}
	d.genDirty = d.genDirty[:0]
	d.gen.width = genWidth
	for i, w := range genWidth {
		if w != d.base.GenWidth[i] && p.hasPairs(i) {
			d.gen.prep(p.samples, i, w)
			d.genDirty = append(d.genDirty, i)
		}
	}
}

// RecomputeFull is Recompute without the incremental shortcut: the
// complete electrical pass runs against the given sources (into scratch
// arenas — the baseline is untouched). It is the exactness reference
// for the incremental path and its fallback when most gates are
// affected.
func (d *Delta) RecomputeFull(delays, genWidth, flux []float64) float64 {
	d.prepGen(genWidth)
	return d.full(delays, flux)
}

// full runs the complete pass at delays and the widths prepGen
// prepared, and reduces it at flux in netlist order.
func (d *Delta) full(delays, flux []float64) float64 {
	p := d.p
	nPOs := p.nPOs
	if d.incrWij == nil {
		d.incrWij = make([]float64, len(p.c.Gates)*nPOs)
	}
	p.run(delays, &d.gen, nil, d.incrWij)
	u := 0.0
	for _, g := range p.c.Gates {
		if !g.Type.IsSource() {
			u += GateU(flux[g.ID], d.incrWij[g.ID*nPOs:(g.ID+1)*nPOs], d.clock)
		}
	}
	return u
}
