package logicsim

import (
	"math/bits"
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// analyzeReference is the historical serial implementation of the kernel
// (per-gate slices, single-threaded suffix-scan DP), kept verbatim as
// the ground truth for the arena-backed parallel rewrite: for a fixed
// seed the two must agree bit for bit.
func analyzeReference(c *ckt.Circuit, nVectors int, rng *stats.RNG) (*Result, error) {
	if nVectors <= 0 {
		nVectors = DefaultVectors
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	nGates := len(c.Gates)
	nWords := (nVectors + 63) / 64
	lastMask := ^uint64(0)
	if r := nVectors % 64; r != 0 {
		lastMask = (uint64(1) << uint(r)) - 1
	}

	base := make([][]uint64, nGates)
	for _, id := range c.Inputs() {
		w := make([]uint64, nWords)
		for k := range w {
			w[k] = rng.Uint64()
		}
		w[nWords-1] &= lastMask
		base[id] = w
	}
	scratchIn := make([]uint64, 0, 16)
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		w := make([]uint64, nWords)
		for k := 0; k < nWords; k++ {
			in := scratchIn[:0]
			for _, f := range g.Fanin {
				in = append(in, base[f][k])
			}
			w[k] = g.Type.EvalWord(in)
		}
		w[nWords-1] &= lastMask
		base[id] = w
	}

	res := &Result{
		N:        nVectors,
		P1:       make([]float64, nGates),
		Activity: make([]float64, nGates),
		Pij:      make([][]float64, nGates),
	}
	pos := c.Outputs()
	for id := 0; id < nGates; id++ {
		ones := 0
		for _, w := range base[id] {
			ones += bits.OnesCount64(w)
		}
		p := float64(ones) / float64(nVectors)
		res.P1[id] = p
		res.Activity[id] = 2 * p * (1 - p)
		res.Pij[id] = make([]float64, len(pos))
	}

	posIdx := make([]int, nGates)
	for i, id := range order {
		posIdx[id] = i
	}
	sideOK := make([][][]uint64, nGates)
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		sideOK[id] = make([][]uint64, len(g.Fanin))
		cv, hasCV := g.Type.ControllingValue()
		for fi := range g.Fanin {
			w := make([]uint64, nWords)
			for k := range w {
				ok := ^uint64(0)
				if hasCV {
					for oi, f := range g.Fanin {
						if oi == fi {
							continue
						}
						if cv {
							ok &= ^base[f][k]
						} else {
							ok &= base[f][k]
						}
					}
				}
				w[k] = ok
			}
			w[nWords-1] &= lastMask
			sideOK[id][fi] = w
		}
	}
	sens := make([][]uint64, nGates)
	mark := make([]int, nGates)
	for i := range sens {
		sens[i] = make([]uint64, nWords)
		mark[i] = -1
	}
	epoch := 0
	for _, fid := range order {
		fg := c.Gates[fid]
		if fg.Type == ckt.Input {
			continue
		}
		epoch++
		for k := 0; k < nWords; k++ {
			sens[fid][k] = ^uint64(0)
		}
		sens[fid][nWords-1] &= lastMask
		mark[fid] = epoch
		for oi := posIdx[fid] + 1; oi < len(order); oi++ {
			id := order[oi]
			g := c.Gates[id]
			if g.Type == ckt.Input {
				continue
			}
			inCone := false
			for _, f := range g.Fanin {
				if mark[f] == epoch {
					inCone = true
					break
				}
			}
			if !inCone {
				continue
			}
			any := uint64(0)
			for k := 0; k < nWords; k++ {
				v := uint64(0)
				for fi, f := range g.Fanin {
					if mark[f] == epoch {
						v |= sens[f][k] & sideOK[id][fi][k]
					}
				}
				sens[id][k] = v
				any |= v
			}
			if any != 0 {
				mark[id] = epoch
			}
		}
		for k2, poID := range pos {
			if poID == fid {
				res.Pij[fid][k2] = 1
				continue
			}
			if mark[poID] != epoch {
				continue
			}
			cnt := 0
			for k := 0; k < nWords; k++ {
				cnt += bits.OnesCount64(sens[poID][k])
			}
			res.Pij[fid][k2] = float64(cnt) / float64(nVectors)
		}
	}
	return res, nil
}

// TestAnalyzeParallelMatchesSerialReference asserts the worker-pool
// kernel is bit-identical to the reference serial implementation on a
// c432-scale circuit for fixed RNG seeds, for several worker counts.
func TestAnalyzeParallelMatchesSerialReference(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	for _, seed := range []uint64{1, 42} {
		for _, nVec := range []int{1000, 4000} {
			want, err := analyzeReference(c, nVec, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := AnalyzeCompiledBudget(cc, nVec, stats.NewRNG(seed), workers, DefaultSensBudgetBytes)
				if err != nil {
					t.Fatal(err)
				}
				if got.N != want.N {
					t.Fatalf("seed=%d N=%d workers=%d: vector count %d != %d", seed, nVec, workers, got.N, want.N)
				}
				for id := range want.P1 {
					if got.P1[id] != want.P1[id] {
						t.Fatalf("seed=%d N=%d workers=%d: P1[%d] = %v, want %v", seed, nVec, workers, id, got.P1[id], want.P1[id])
					}
					if got.Activity[id] != want.Activity[id] {
						t.Fatalf("seed=%d N=%d workers=%d: Activity[%d] = %v, want %v", seed, nVec, workers, id, got.Activity[id], want.Activity[id])
					}
					for j := range want.Pij[id] {
						if got.Pij[id][j] != want.Pij[id][j] {
							t.Fatalf("seed=%d N=%d workers=%d: Pij[%d][%d] = %v, want %v",
								seed, nVec, workers, id, j, got.Pij[id][j], want.Pij[id][j])
						}
					}
				}
			}
		}
	}
}

func BenchmarkAnalyzeC432(b *testing.B) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeCompiledBudget(engine.MustCompile(c), 10000, stats.NewRNG(1), 0, DefaultSensBudgetBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeC432Serial(b *testing.B) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzeReference(c, 10000, stats.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
	}
}
