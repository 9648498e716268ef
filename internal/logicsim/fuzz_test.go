package logicsim

import (
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// FuzzSensitization checks the bit-parallel, chunked sensitization
// kernel against a literal per-vector oracle. On a random generated
// netlist, with fuzzed vector count, seed, worker count and memory
// budget (small budgets force multi-chunk runs), the reference redraws
// the primary-input words from the same RNG stream, evaluates every
// vector one at a time with Evaluate, and runs the path-sensitization
// DP from every source gate. P1, Activity and every Pij must equal the
// reference counts divided by N exactly.
func FuzzSensitization(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(8), uint8(30), uint8(4), uint16(100), uint8(0), uint16(0))
	f.Add(uint64(7), uint64(5), uint8(4), uint8(60), uint8(6), uint16(517), uint8(2), uint16(2000))
	f.Add(uint64(42), uint64(9), uint8(16), uint8(120), uint8(9), uint16(299), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, genSeed, simSeed uint64, pis, gates, depth uint8, nVec uint16, workers uint8, budget uint16) {
		p := gen.Profile{
			Name:  "fuzz",
			PIs:   2 + int(pis%24),
			POs:   1 + int(pis%8),
			Gates: 8 + int(gates%123),
			Depth: 2 + int(depth%16),
			Seed:  genSeed,
		}
		c, err := gen.Generate(p)
		if err != nil {
			t.Skip() // unsatisfiable profile, not a simulator bug
		}
		n := 1 + int(nVec%300)
		got, err := AnalyzeCompiledBudget(engine.MustCompile(c), n, stats.NewRNG(simSeed),
			1+int(workers%4), int64(budget))
		if err != nil {
			t.Fatal(err)
		}

		inputs := c.Inputs()
		nWords := (n + 63) / 64
		rng := stats.NewRNG(simSeed)
		piW := make([]uint64, len(inputs)*nWords)
		for i := range piW {
			piW[i] = rng.Uint64()
		}
		order := c.MustTopoOrder()
		pos := c.Outputs()
		ones := make([]int, len(c.Gates))
		pij := make([][]int, len(c.Gates))
		for id := range pij {
			pij[id] = make([]int, len(pos))
		}
		in := make([]bool, len(inputs))
		for v := 0; v < n; v++ {
			for i := range inputs {
				in[i] = piW[i*nWords+v/64]>>(v%64)&1 == 1
			}
			val, err := Evaluate(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for id, b := range val {
				if b {
					ones[id]++
				}
			}
			for _, g := range c.Gates {
				if g.Type == ckt.Input {
					continue // strikes hit gate outputs only
				}
				sens := sensitizedFrom(c, order, val, g.ID)
				for k, po := range pos {
					if sens[po] {
						pij[g.ID][k]++
					}
				}
			}
		}

		if got.N != n {
			t.Fatalf("N = %d, want %d", got.N, n)
		}
		nv := float64(n)
		for id := range c.Gates {
			p1 := float64(ones[id]) / nv
			if got.P1[id] != p1 {
				t.Fatalf("P1[%d] = %v, reference %v", id, got.P1[id], p1)
			}
			if act := 2 * p1 * (1 - p1); got.Activity[id] != act {
				t.Fatalf("Activity[%d] = %v, reference %v", id, got.Activity[id], act)
			}
			for k := range pos {
				if want := float64(pij[id][k]) / nv; got.Pij[id][k] != want {
					t.Fatalf("Pij[%d][%d] = %v, reference %v", id, k, got.Pij[id][k], want)
				}
			}
		}
	})
}
