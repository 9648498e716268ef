package strike

import (
	"context"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/par"
	"repro/internal/stats"
)

// LogicalPropagate is the sequential pipeline's multi-cycle logical
// fault chase: for each flop, a captured fault (its state column
// flipped in every vector lane) is propagated through the frames of a
// fault-free cycles-long trace, counting wrong latched PO values until
// the fault dies or the horizon ends. It returns E_f per flop — the
// expected number of erroneous latched PO values per captured fault.
//
// Flops are independent given the shared trace, so the sweep fans out
// over a worker pool (workers <= 0 selects one per CPU); each flop
// writes only its own slot, keeping the result bit-identical for any
// worker count. Each worker reuses one frame arena and one pair of
// state arrays across its flops: EvalFrame overwrites every gate row
// and the state is re-copied from State[0] per flop, so nothing stale
// survives. This is the dominant stage on big circuits
// (flops × cycles frame evaluations), so ctx is polled at every flop
// boundary.
func LogicalPropagate(ctx context.Context, cc *engine.CompiledCircuit, cycles, vectors int, rng *stats.RNG, initState []bool, workers int) ([]float64, error) {
	c := cc.Circuit()
	flops := c.DFFs()
	nFlops := len(flops)
	epf := make([]float64, nFlops)
	if nFlops == 0 {
		return epf, nil
	}
	tr, err := logicsim.SimulateFramesCompiled(cc, cycles, vectors, rng, initState)
	if err != nil {
		return nil, err
	}
	nW := tr.NWords()
	lastMask := tr.LastMask()
	nGates := len(c.Gates)
	pos := c.Outputs()
	nw := par.Workers(workers)
	if nw > nFlops {
		nw = nFlops
	}
	type scratch struct{ vals, st, next []uint64 }
	scratches := make([]scratch, nw)
	for i := range scratches {
		scratches[i] = scratch{
			vals: make([]uint64, nGates*nW),
			st:   make([]uint64, nFlops*nW),
			next: make([]uint64, nFlops*nW),
		}
	}
	par.Each(nFlops, nw, 1, func(worker, lo, hi int) {
		vals := scratches[worker].vals
		for fi := lo; fi < hi; fi++ {
			st, next := scratches[worker].st, scratches[worker].next
			if ctx.Err() != nil {
				return // the post-pool ctx check reports the cancellation
			}
			copy(st, tr.State[0])
			row := st[fi*nW : (fi+1)*nW]
			for k := range row {
				row[k] = ^row[k]
			}
			row[nW-1] &= lastMask
			errs := 0
			for t := 0; t < tr.Cycles; t++ {
				if equalWords(st, tr.State[t]) {
					break // the fault died: the faulty run rejoined the trace
				}
				tr.EvalFrame(vals, t, st)
				for p, poID := range pos {
					for k := 0; k < nW; k++ {
						errs += bits.OnesCount64(vals[poID*nW+k] ^ tr.PO[t][p*nW+k])
					}
				}
				tr.NextState(vals, next)
				st, next = next, st
			}
			epf[fi] = float64(errs) / float64(tr.N)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return epf, nil
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
