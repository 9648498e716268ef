package logicsim

import (
	"fmt"
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// FuzzSensitization checks the bit-parallel, chunked sensitization
// kernel against the literal per-vector oracle (literalSensitization)
// on a random generated netlist, with fuzzed vector count, seed,
// worker count and memory budget (small budgets force multi-chunk
// runs).
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
		requireSameResult(t, literalSensitization(t, c, n, simSeed), got, "fuzz")
	})
}

// literalSensitization is the per-vector oracle of the kernel: it
// redraws the primary-input words from the same RNG stream, evaluates
// every vector one at a time with Evaluate, and runs the forward
// path-sensitization DP (sensitizedFrom) from every source gate, each
// walk starting at its source's topological position. P1,
// Activity and Pij are the reference counts divided by N, so a correct
// kernel matches them exactly.
func literalSensitization(t *testing.T, c *ckt.Circuit, n int, simSeed uint64) *Result {
	t.Helper()
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
	sens := make([]bool, len(c.Gates))
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
		for at, id := range order {
			if c.Gates[id].Type == ckt.Input {
				continue // strikes hit gate outputs only
			}
			sensitizedFrom(c, order, val, at, sens)
			for k, po := range pos {
				if sens[po] {
					pij[id][k]++
				}
			}
		}
	}

	nv := float64(n)
	want := &Result{
		N:        n,
		P1:       make([]float64, len(c.Gates)),
		Activity: make([]float64, len(c.Gates)),
		Pij:      make([][]float64, len(c.Gates)),
	}
	for id := range c.Gates {
		p1 := float64(ones[id]) / nv
		want.P1[id] = p1
		want.Activity[id] = 2 * p1 * (1 - p1)
		want.Pij[id] = make([]float64, len(pos))
		for k := range pos {
			want.Pij[id][k] = float64(pij[id][k]) / nv
		}
	}
	return want
}

// wideBlock adds to c, over nine source signals, a block of 5-, 7- and
// 9-input AND, NAND, OR, NOR and XOR gates, which generated netlists
// (fanin at most 4) never hold, and returns their names. AND-class
// pins come from two-input ORs and OR-class pins from two-input ANDs,
// so most side inputs are non-controlling; each XOR also takes the
// AND, NAND, OR and NOR gates of its width, so wide gates sit inside
// paths as well as at their ends; nor9 takes one signal on three pins.
func wideBlock(t *testing.T, c *ckt.Circuit, srcs [9]string) []string {
	t.Helper()
	add := func(name string, typ ckt.GateType, ins ...string) string {
		id := c.MustAddGate(name, typ)
		for _, in := range ins {
			src, ok := c.GateByName(in)
			if !ok {
				t.Fatalf("unknown fanin %q", in)
			}
			c.MustConnect(src, id)
		}
		return name
	}
	var hi, lo [9]string
	for j := range srcs {
		hi[j] = add(fmt.Sprintf("hi%d", j), ckt.Or, srcs[j], srcs[(j+4)%9])
		lo[j] = add(fmt.Sprintf("lo%d", j), ckt.And, srcs[j], srcs[(j+2)%9])
	}
	var wide []string
	xorIn := []string{hi[0], lo[1], hi[2], lo[3], hi[4], lo[5], hi[6]}
	prev := ""
	for _, n := range []int{5, 7, 9} {
		nor := lo[9-n:]
		if n == 9 {
			nor = []string{lo[0], lo[1], lo[2], lo[3], lo[0], lo[4], lo[5], lo[6], lo[0]}
		}
		xor := []string{
			add(fmt.Sprintf("and%d", n), ckt.And, hi[:n]...),
			add(fmt.Sprintf("nand%d", n), ckt.Nand, hi[9-n:]...),
			add(fmt.Sprintf("or%d", n), ckt.Or, lo[:n]...),
			add(fmt.Sprintf("nor%d", n), ckt.Nor, nor...),
		}
		wide = append(wide, xor...)
		if prev != "" {
			xor = append(xor, prev)
		}
		xor = append(xor, xorIn[:n-len(xor)]...)
		prev = add(fmt.Sprintf("xor%d", n), ckt.Xor, xor...)
		wide = append(wide, prev)
	}
	return wide
}

// TestSensitizationEdgeCases pins the kernel to the literal oracle on
// a hand-written netlist holding every shape the PO-rooted DP must
// get right: a primary input that is also a PO (its column stays
// zero), a PO that drives further logic (as a sequential frame's D-pin
// drivers do), one signal on two pins of a gate (one edge per pin,
// ORed), and logic that reaches no PO (zero rows). Vector counts
// straddle the 64-lane word boundary, and the budgets force one-word
// chunks. A second netlist, wideBlock over nine primary inputs with
// every wide gate a PO, holds the side-input fill of wide gates to the
// oracle at vector counts that span two 64-word chunks.
func TestSensitizationEdgeCases(t *testing.T) {
	c := ckt.New("edges")
	add := func(name string, typ ckt.GateType, ins ...string) int {
		id := c.MustAddGate(name, typ)
		for _, in := range ins {
			src, ok := c.GateByName(in)
			if !ok {
				t.Fatalf("unknown fanin %q", in)
			}
			c.MustConnect(src, id)
		}
		return id
	}
	a := add("a", ckt.Input)
	add("b", ckt.Input)
	add("c", ckt.Input)
	add("d", ckt.Input)
	add("g1", ckt.Nand, "a", "b")
	add("g2", ckt.Nor, "b", "c")
	add("g3", ckt.Nand, "g2", "g2", "d")
	g4 := add("g4", ckt.And, "g1", "g3", "d")
	g5 := add("g5", ckt.Xor, "g4", "c")
	g6 := add("g6", ckt.Or, "g1", "d")
	g7 := add("g7", ckt.Not, "g6")
	// g3 reaches g8 directly and through g4, under different side
	// conditions, so its observability must OR both pushes.
	g8 := add("g8", ckt.Xor, "g3", "g4")
	for _, po := range []int{a, g4, g5, g8} {
		c.MarkPO(po)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	for _, n := range []int{1, 63, 64, 65, 300} {
		want := literalSensitization(t, c, n, 3)
		for workers := 1; workers <= 4; workers++ {
			for _, budget := range []int64{0, 1, 200} {
				got, err := AnalyzeCompiledBudget(cc, n, stats.NewRNG(3), workers, budget)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("N=%d workers=%d budget=%d", n, workers, budget)
				requireSameResult(t, want, got, label)
				for id := range c.Gates {
					if got.Pij[id][0] != 0 {
						t.Fatalf("%s: Pij[%d] reaches the PI output", label, id)
					}
				}
				for _, id := range []int{a, g6, g7} {
					for k, p := range got.Pij[id] {
						if p != 0 {
							t.Fatalf("%s: Pij[%d][%d] = %v, want 0", label, id, k, p)
						}
					}
				}
				for k, po := range []int{g4, g5, g8} {
					if got.Pij[po][k+1] != 1 {
						t.Fatalf("%s: P_jj of %s = %v, want 1", label, c.Gates[po].Name, got.Pij[po][k+1])
					}
				}
			}
		}
	}

	w := ckt.New("wide")
	var srcs [9]string
	for j := range srcs {
		srcs[j] = fmt.Sprintf("i%d", j)
		w.MustAddGate(srcs[j], ckt.Input)
	}
	for _, name := range wideBlock(t, w, srcs) {
		id, _ := w.GateByName(name)
		w.MarkPO(id)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	wcc := engine.MustCompile(w)
	for _, n := range []int{1, 64, 65, 4097} {
		want := literalSensitization(t, w, n, 5)
		for workers := 1; workers <= 4; workers++ {
			for _, budget := range []int64{0, 1, 30000} {
				got, err := AnalyzeCompiledBudget(wcc, n, stats.NewRNG(5), workers, budget)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, want, got, fmt.Sprintf("wide N=%d workers=%d budget=%d", n, workers, budget))
			}
		}
	}
}

// TestSensitizationOnePinGates: an AND, NOR or NAND with one pin, which
// Validate refuses but the kernel is not guarded by, has no side input;
// the kernel matches the literal oracle on a chain of them.
func TestSensitizationOnePinGates(t *testing.T) {
	c := ckt.New("onepin")
	prev := c.MustAddGate("a", ckt.Input)
	for i, typ := range []ckt.GateType{ckt.And, ckt.Nor, ckt.Nand} {
		id := c.MustAddGate(fmt.Sprintf("g%d", i), typ)
		c.MustConnect(prev, id)
		prev = id
	}
	c.MarkPO(prev)
	for _, n := range []int{1, 100} {
		got, err := AnalyzeCompiledBudget(engine.MustCompile(c), n, stats.NewRNG(1), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, literalSensitization(t, c, n, 1), got, fmt.Sprintf("N=%d", n))
	}
}
