package strike

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/par"
	"repro/internal/stats"
)

// maxChunkWords caps a chase chunk at 16 vector words (1,024 vectors):
// a worker's fault-free and faulty frames then stay cache-sized on
// ISCAS-89-class netlists, and a 10,000-vector run still splits into
// enough chunks to feed every worker.
const maxChunkWords = 16

// LogicalPropagate is the sequential pipeline's multi-cycle logical
// fault chase: for each flop, a captured fault (its state column
// flipped in every vector lane) is propagated through the frames of a
// fault-free cycles-long run, counting wrong latched PO values until
// the fault dies or the horizon ends. It returns E_f per flop — the
// expected number of erroneous latched PO values per captured fault.
//
// The chase is event-driven and cycle-major. The vector set — every
// cycle's primary-input words, drawn from rng cycle by cycle, input by
// input in Inputs() order — is split into chunks of at most
// maxChunkWords words, which a worker pool takes one at a time
// (workers <= 0 selects one per CPU). For each cycle a worker
// evaluates the chunk's fault-free frame once, then advances every
// still-live fault through it, re-evaluating in ascending logic level
// only the gates with a fanin that differs from the fault-free run. A
// fault whose next state equals the fault-free one in every lane of
// the chunk is dead there, and a chunk with no live fault stops.
//
// Lanes are independent and the error counts are integer popcounts
// summed over chunks, so E_f is bit-identical for any chunk width and
// worker count. Apart from the primary-input stream, memory does not
// grow with cycles: each worker keeps one fault-free frame, one faulty
// frame and two arenas of the live faults' differing state columns.
// Faults run in groups sized so the worst case, every live fault
// differing in every flop, fits logicsim.DefaultSensBudgetBytes across
// the workers. ctx is polled once per chunk and cycle.
func LogicalPropagate(ctx context.Context, cc *engine.CompiledCircuit, cycles, vectors int, rng *stats.RNG, initState []bool, workers int) ([]float64, error) {
	nFlops := len(cc.Circuit().DFFs())
	epf := make([]float64, nFlops)
	if nFlops == 0 {
		return epf, nil
	}
	ch, err := newChase(cc, cycles, vectors, rng, initState)
	if err != nil {
		return nil, err
	}
	nw := par.Workers(workers)
	cw := min(maxChunkWords, (ch.nWords+nw-1)/nw)
	nw = min(nw, (ch.nWords+cw-1)/cw)
	group := nFlops
	if budget := logicsim.DefaultSensBudgetBytes; budget > 0 {
		// One fault's worst case: a differing row and column index
		// for every flop, in both arenas of every worker.
		perFault := int64(nw) * 2 * int64(nFlops) * int64(8*cw+4)
		group = int(min(int64(nFlops), max(1, budget/perFault)))
	}
	errs, err := ch.run(ctx, cw, nw, group)
	if err != nil {
		return nil, err
	}
	for fi, e := range errs {
		epf[fi] = float64(e) / float64(ch.n)
	}
	return epf, nil
}

// chase is one LogicalPropagate call's read-only state, shared by
// every worker.
type chase struct {
	c      *ckt.Circuit
	logic  []int // non-source gates in topological order
	levels []int
	flops  []int
	// captures[id] lists the flops whose D pin gate id drives.
	captures [][]int32
	reset    []bool // flop reset values; nil means all zero
	cycles   int
	n        int // vector count
	nWords   int
	lastMask uint64
	// pi holds every cycle's primary-input words, flat
	// (t*nPIs+i)*nWords+w, with each column's last word masked.
	pi       []uint64
	maxFanin int
}

func newChase(cc *engine.CompiledCircuit, cycles, vectors int, rng *stats.RNG, initState []bool) (*chase, error) {
	c := cc.Circuit()
	if cycles < 1 {
		return nil, fmt.Errorf("strike: LogicalPropagate needs cycles >= 1, got %d", cycles)
	}
	if vectors <= 0 {
		vectors = logicsim.DefaultVectors
	}
	flops := c.DFFs()
	if initState != nil && len(initState) != len(flops) {
		return nil, fmt.Errorf("strike: initState has %d bits for %d flops", len(initState), len(flops))
	}
	ch := &chase{
		c:        c,
		levels:   cc.Levels(),
		flops:    flops,
		captures: make([][]int32, len(c.Gates)),
		reset:    initState,
		cycles:   cycles,
		n:        vectors,
		nWords:   (vectors + 63) / 64,
		lastMask: ^uint64(0),
	}
	if r := vectors % 64; r != 0 {
		ch.lastMask = (uint64(1) << uint(r)) - 1
	}
	for _, id := range cc.TopoOrder() {
		g := c.Gates[id]
		if g.Type.IsSource() {
			continue
		}
		ch.logic = append(ch.logic, id)
		ch.maxFanin = max(ch.maxFanin, len(g.Fanin))
	}
	for fi, id := range flops {
		g := c.Gates[id]
		if len(g.Fanin) != 1 {
			return nil, fmt.Errorf("strike: flop %q has %d D pins, want 1", g.Name, len(g.Fanin))
		}
		d := g.Fanin[0]
		ch.captures[d] = append(ch.captures[d], int32(fi))
	}
	nPIs := len(c.Inputs())
	ch.pi = make([]uint64, cycles*nPIs*ch.nWords)
	for col := 0; col < cycles*nPIs; col++ {
		w := ch.pi[col*ch.nWords : (col+1)*ch.nWords]
		for k := range w {
			w[k] = rng.Uint64()
		}
		w[ch.nWords-1] &= ch.lastMask
	}
	return ch, nil
}

// run chases every flop's fault over chunks of cw words on nw workers,
// group faults at a time, and returns each flop's error count.
func (ch *chase) run(ctx context.Context, cw, nw, group int) ([]int64, error) {
	nChunks := (ch.nWords + cw - 1) / cw
	ws := make([]*chaseWorker, nw)
	for i := range ws {
		ws[i] = ch.newWorker(cw)
	}
	par.Each(nChunks, nw, 1, func(worker, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			ws[worker].chunk(ctx, ch, ci*cw, min((ci+1)*cw, ch.nWords), group)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	errs := make([]int64, len(ch.flops))
	for _, w := range ws {
		for fi, e := range w.errs {
			errs[fi] += e
		}
	}
	return errs, nil
}

// chaseWorker is one worker's private state, reused across its chunks
// so the chase never allocates per gate or per cycle. Rows are k words
// wide, k being the current chunk's width.
type chaseWorker struct {
	// ff and fv hold the fault-free and faulty frames, flat gateID*k; a
	// faulty row is valid only while diff marks it.
	ff, fv []uint64
	// state is the fault-free flop state, flat flopIndex*k.
	state []uint64
	// diff[id] and queued[id] are the fault epochs in which gate id's
	// faulty row differs from its fault-free row, and in which it was
	// queued for evaluation.
	diff, queued []int
	epoch        int
	// frontier buckets queued gates by logic level.
	frontier [][]int32
	// changed lists the gates diff marks in the current epoch.
	changed   []int32
	src       [][]uint64
	cur, next faultArena
	// errs counts wrong latched PO values per flop over this worker's
	// chunks.
	errs []int64
}

// faultArena holds the live faults of one cycle: each fault's
// differing flop columns and their faulty rows.
type faultArena struct {
	faults []liveFault
	cols   []int32  // flop indices
	rows   []uint64 // one k-word row per cols entry
}

// liveFault is the fault captured in flop origin; its differing
// columns are cols[lo:hi] of its arena.
type liveFault struct{ origin, lo, hi int32 }

func (a *faultArena) clear() {
	a.faults, a.cols, a.rows = a.faults[:0], a.cols[:0], a.rows[:0]
}

func (ch *chase) newWorker(cw int) *chaseWorker {
	nGates := len(ch.c.Gates)
	maxLv := 0
	for _, l := range ch.levels {
		maxLv = max(maxLv, l)
	}
	return &chaseWorker{
		ff:       make([]uint64, nGates*cw),
		fv:       make([]uint64, nGates*cw),
		state:    make([]uint64, len(ch.flops)*cw),
		diff:     make([]int, nGates),
		queued:   make([]int, nGates),
		frontier: make([][]int32, maxLv+1),
		src:      make([][]uint64, ch.maxFanin),
		errs:     make([]int64, len(ch.flops)),
	}
}

// chunk chases the faults of every flop over vector words [w0, w1).
func (w *chaseWorker) chunk(ctx context.Context, ch *chase, w0, w1, group int) {
	k := w1 - w0
	final := w1 == ch.nWords
	nFlops := len(ch.flops)
	for g0 := 0; g0 < nFlops; g0 += group {
		// Reset broadcast, and one fault per flop of the group: its
		// column inverted in every lane.
		w.cur.clear()
		for fi := 0; fi < nFlops; fi++ {
			row := w.state[fi*k : (fi+1)*k]
			fill := uint64(0)
			if ch.reset != nil && ch.reset[fi] {
				fill = ^uint64(0)
			}
			for j := range row {
				row[j] = fill
			}
			if final {
				row[k-1] &= ch.lastMask
			}
			if fi < g0 || fi >= g0+group {
				continue
			}
			lo := int32(len(w.cur.cols))
			w.cur.cols = append(w.cur.cols, int32(fi))
			for _, v := range row {
				w.cur.rows = append(w.cur.rows, ^v)
			}
			if final {
				w.cur.rows[len(w.cur.rows)-1] &= ch.lastMask
			}
			w.cur.faults = append(w.cur.faults, liveFault{int32(fi), lo, lo + 1})
		}
		for t := 0; t < ch.cycles && len(w.cur.faults) > 0; t++ {
			if ctx.Err() != nil {
				return // run's post-pool ctx check reports the cancellation
			}
			w.frame(ch, t, w0, w1)
			w.next.clear()
			for _, f := range w.cur.faults {
				w.advance(ch, f, k, final)
			}
			for fi, id := range ch.flops {
				d := ch.c.Gates[id].Fanin[0]
				copy(w.state[fi*k:(fi+1)*k], w.ff[d*k:(d+1)*k])
			}
			w.cur, w.next = w.next, w.cur
		}
	}
}

// frame evaluates cycle t's fault-free frame over vector words
// [w0, w1): primary-input rows from the stream, flop rows from the
// fault-free state, every logic gate in topological order.
func (w *chaseWorker) frame(ch *chase, t, w0, w1 int) {
	k := w1 - w0
	final := w1 == ch.nWords
	inputs := ch.c.Inputs()
	for i, id := range inputs {
		off := (t*len(inputs) + i) * ch.nWords
		copy(w.ff[id*k:(id+1)*k], ch.pi[off+w0:off+w1])
	}
	for fi, id := range ch.flops {
		copy(w.ff[id*k:(id+1)*k], w.state[fi*k:(fi+1)*k])
	}
	for _, id := range ch.logic {
		g := ch.c.Gates[id]
		src := w.src[:len(g.Fanin)]
		for p, f := range g.Fanin {
			src[p] = w.ff[f*k : (f+1)*k]
		}
		row := w.ff[id*k : (id+1)*k]
		g.Type.EvalRows(row, src)
		if final {
			row[k-1] &= ch.lastMask
		}
	}
}

// advance moves one live fault through the current fault-free frame:
// it loads the fault's differing flop columns, re-evaluates the gates
// they disturb in ascending logic level, counts the wrong PO values,
// and appends the fault's next state to w.next unless it died.
func (w *chaseWorker) advance(ch *chase, f liveFault, k int, final bool) {
	w.epoch++
	ep := w.epoch
	gates := ch.c.Gates
	w.changed = w.changed[:0]
	top := 0
	// disturb records gate id's faulty row as differing and queues its
	// logic fanouts. D pins are not queued: the next state reads them.
	disturb := func(id int) {
		w.diff[id] = ep
		w.changed = append(w.changed, int32(id))
		for _, s := range gates[id].Fanout {
			if w.queued[s] == ep || gates[s].Type.IsSource() {
				continue
			}
			w.queued[s] = ep
			l := ch.levels[s]
			w.frontier[l] = append(w.frontier[l], int32(s))
			top = max(top, l)
		}
	}
	for j := f.lo; j < f.hi; j++ {
		id := ch.flops[w.cur.cols[j]]
		copy(w.fv[id*k:(id+1)*k], w.cur.rows[int(j)*k:int(j+1)*k])
		disturb(id)
	}
	// A gate's fanouts sit at strictly higher levels, so a bucket is
	// complete when its level comes up and never grows while popped.
	for l := 1; l <= top; l++ {
		for _, id32 := range w.frontier[l] {
			id := int(id32)
			g := gates[id]
			src := w.src[:len(g.Fanin)]
			for p, fid := range g.Fanin {
				if w.diff[fid] == ep {
					src[p] = w.fv[fid*k : (fid+1)*k]
				} else {
					src[p] = w.ff[fid*k : (fid+1)*k]
				}
			}
			row := w.fv[id*k : (id+1)*k]
			g.Type.EvalRows(row, src)
			if final {
				row[k-1] &= ch.lastMask
			}
			ref := w.ff[id*k : (id+1)*k]
			delta := uint64(0)
			for j, v := range row {
				delta |= v ^ ref[j]
			}
			if delta != 0 {
				disturb(id)
			}
		}
		w.frontier[l] = w.frontier[l][:0]
	}

	errs := 0
	lo := int32(len(w.next.cols))
	for _, id32 := range w.changed {
		id := int(id32)
		row := w.fv[id*k : (id+1)*k]
		if gates[id].PO {
			ref := w.ff[id*k : (id+1)*k]
			for j, v := range row {
				errs += bits.OnesCount64(v ^ ref[j])
			}
		}
		for _, fi := range ch.captures[id] {
			w.next.cols = append(w.next.cols, fi)
			w.next.rows = append(w.next.rows, row...)
		}
	}
	w.errs[f.origin] += int64(errs)
	if hi := int32(len(w.next.cols)); hi > lo {
		w.next.faults = append(w.next.faults, liveFault{f.origin, lo, hi})
	}
}
