package strike

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// requireSameEpf fails unless got equals the reference chase's E_f
// exactly, flop by flop.
func requireSameEpf(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d flops, want %d", label, len(got), len(want))
	}
	for fi := range want {
		if got[fi] != want[fi] {
			t.Fatalf("%s: E_f[%d] = %v, reference %v", label, fi, got[fi], want[fi])
		}
	}
}

// reference runs the full-width reference chase on one worker.
func reference(t *testing.T, cc *engine.CompiledCircuit, cycles, n int, seed uint64, init []bool) []float64 {
	t.Helper()
	want, err := referenceLogicalPropagate(context.Background(), cc, cycles, n, stats.NewRNG(seed), init, 1)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestLogicalPropagateMatchesReference holds the event-driven chase to
// the full-width reference on ISCAS-89 circuits for every chunk width,
// worker count and fault-group size, including widths that leave a
// short final chunk.
func TestLogicalPropagateMatchesReference(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s386", "s1196"} {
		c, err := gen.ISCAS89(name)
		if err != nil {
			t.Fatal(err)
		}
		cc := engine.MustCompile(c)
		nFlops := len(c.DFFs())
		mixed := make([]bool, nFlops)
		for fi := range mixed {
			mixed[fi] = fi%3 == 1
		}
		for _, init := range [][]bool{nil, mixed} {
			const n, cycles, seed = 1100, 4, 5
			want := reference(t, cc, cycles, n, seed, init)
			nWords := (n + 63) / 64
			for _, cw := range []int{1, 3, 16, nWords} {
				for nw := 1; nw <= 3; nw++ {
					for _, group := range []int{1, 2, 5, nFlops} {
						ch, err := newChase(cc, cycles, n, stats.NewRNG(seed), init)
						if err != nil {
							t.Fatal(err)
						}
						errs, err := ch.run(context.Background(), cw, nw, group)
						if err != nil {
							t.Fatal(err)
						}
						got := make([]float64, nFlops)
						for fi, e := range errs {
							got[fi] = float64(e) / float64(n)
						}
						requireSameEpf(t, want, got, fmt.Sprintf("%s init=%v cw=%d workers=%d group=%d", name, init != nil, cw, nw, group))
					}
				}
			}
		}
	}
}

// edgeNetlist holds every shape the chase must get right:
//
//	q1 <- a         a D pin driven by a PI: never disturbed
//	q2 <- q1        a shift register: q1's fault reaches the PO q3
//	q3 <- q2        two cycles later, one flop per cycle
//	q4 <- BUF(q4)   a flop holding its own value: its fault never dies
//	q5 <- x2 ^ c    x2 = q5 ^ (q5 & b) reconverges through XOR
//
// Its POs are q3 (a flop Q), a (a PI, which never counts), y =
// AND(BUF(q4), b) and x2.
func edgeNetlist(t *testing.T) *ckt.Circuit {
	t.Helper()
	c := ckt.New("edges")
	ids := map[string]int{}
	for _, name := range []string{"a", "b", "c"} {
		ids[name] = c.MustAddGate(name, ckt.Input)
	}
	for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
		ids[name] = c.MustAddGate(name, ckt.DFF)
	}
	add := func(name string, typ ckt.GateType, ins ...string) {
		ids[name] = c.MustAddGate(name, typ)
		for _, in := range ins {
			c.MustConnect(ids[in], ids[name])
		}
	}
	add("h", ckt.Buf, "q4")
	add("y", ckt.And, "h", "b")
	add("x1", ckt.And, "q5", "b")
	add("x2", ckt.Xor, "q5", "x1")
	add("x3", ckt.Xor, "x2", "c")
	for _, e := range [][2]string{{"a", "q1"}, {"q1", "q2"}, {"q2", "q3"}, {"h", "q4"}, {"x3", "q5"}} {
		c.MustConnect(ids[e[0]], ids[e[1]])
	}
	for _, po := range []string{"q3", "a", "y", "x2"} {
		c.MarkPO(ids[po])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// wideNetlist holds what generated netlists (fanin at most 4) never
// do: 5-, 7- and 9-input AND, NAND, OR, NOR and XOR gates, over the
// primary inputs a, b, c and the flops q0..q5. AND-class pins come
// from two-input ORs and OR-class pins from two-input ANDs, so most
// side inputs are non-controlling; each XOR also takes the AND, NAND,
// OR and NOR gates of its width; nor9 takes one signal on three pins.
// The flops capture xor9, and9, nor9, nand7, or5 and xor7, and the
// 9-input gates are the POs.
func wideNetlist(t *testing.T) *ckt.Circuit {
	t.Helper()
	c := ckt.New("wide")
	ids := map[string]int{}
	srcs := []string{"a", "q0", "q1", "b", "q2", "q3", "c", "q4", "q5"}
	for _, name := range srcs {
		typ := ckt.DFF
		if len(name) == 1 {
			typ = ckt.Input
		}
		ids[name] = c.MustAddGate(name, typ)
	}
	add := func(name string, typ ckt.GateType, ins ...string) string {
		ids[name] = c.MustAddGate(name, typ)
		for _, in := range ins {
			c.MustConnect(ids[in], ids[name])
		}
		return name
	}
	var hi, lo [9]string
	for j := range srcs {
		hi[j] = add(fmt.Sprintf("hi%d", j), ckt.Or, srcs[j], srcs[(j+4)%9])
		lo[j] = add(fmt.Sprintf("lo%d", j), ckt.And, srcs[j], srcs[(j+2)%9])
	}
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
		if prev != "" {
			xor = append(xor, prev)
		}
		xor = append(xor, xorIn[:n-len(xor)]...)
		prev = add(fmt.Sprintf("xor%d", n), ckt.Xor, xor...)
	}
	for _, e := range [][2]string{{"xor9", "q0"}, {"and9", "q1"}, {"nor9", "q2"}, {"nand7", "q3"}, {"or5", "q4"}, {"xor7", "q5"}} {
		c.MustConnect(ids[e[0]], ids[e[1]])
	}
	for _, po := range []string{"and9", "nand9", "or9", "nor9", "xor9"} {
		c.MarkPO(ids[po])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLogicalPropagateEdgeCases pins the chase to the reference on
// edgeNetlist at vector counts straddling the word and chunk
// boundaries, and checks the shift register's E_f by hand: a fault in
// q1, q2 or q3 reaches the PO q3 in every lane exactly once, after
// 2, 1 and 0 cycles. A padding lane that leaked would push those
// counts above N. It then pins the chase to the reference on
// wideNetlist, up to 4097 vectors.
func TestLogicalPropagateEdgeCases(t *testing.T) {
	c := edgeNetlist(t)
	cc := engine.MustCompile(c)
	resets := map[string][]bool{
		"zero":  nil,
		"one":   {true, true, true, true, true},
		"mixed": {true, false, true, false, true},
	}
	for _, n := range []int{1, 63, 64, 65, 1023, 1024, 1025} {
		for _, cycles := range []int{1, 2, 8} {
			for rname, init := range resets {
				want := reference(t, cc, cycles, n, 11, init)
				for fi, lag := range []int{2, 1, 0} {
					seen := 0.0
					if cycles > lag {
						seen = 1
					}
					if want[fi] != seen {
						t.Fatalf("N=%d K=%d reset=%s: reference E_f[q%d] = %v, want %v", n, cycles, rname, fi+1, want[fi], seen)
					}
				}
				for workers := 1; workers <= 4; workers++ {
					got, err := LogicalPropagate(context.Background(), cc, cycles, n, stats.NewRNG(11), init, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireSameEpf(t, want, got, fmt.Sprintf("N=%d K=%d reset=%s workers=%d", n, cycles, rname, workers))
				}
			}
		}
	}

	wcc := engine.MustCompile(wideNetlist(t))
	for _, n := range []int{1, 64, 65, 4097} {
		for _, cycles := range []int{1, 4} {
			for _, init := range [][]bool{nil, {true, false, true, true, false, false}} {
				want := reference(t, wcc, cycles, n, 13, init)
				for workers := 1; workers <= 4; workers++ {
					got, err := LogicalPropagate(context.Background(), wcc, cycles, n, stats.NewRNG(13), init, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireSameEpf(t, want, got, fmt.Sprintf("wide N=%d K=%d reset=%v workers=%d", n, cycles, init != nil, workers))
				}
			}
		}
	}
}

// TestLogicalPropagateErrors: the argument checks survive the rewrite,
// and a flop-free circuit returns an empty E_f without checking them.
func TestLogicalPropagateErrors(t *testing.T) {
	cc := engine.MustCompile(gen.S27())
	ctx := context.Background()
	if _, err := LogicalPropagate(ctx, cc, 0, 64, stats.NewRNG(1), nil, 1); err == nil {
		t.Error("cycles=0 accepted")
	}
	if _, err := LogicalPropagate(ctx, cc, 2, 64, stats.NewRNG(1), []bool{true}, 1); err == nil {
		t.Error("wrong-length initState accepted")
	}
	epf, err := LogicalPropagate(ctx, engine.MustCompile(gen.C17()), 0, 64, stats.NewRNG(1), nil, 1)
	if err != nil || epf == nil || len(epf) != 0 {
		t.Errorf("flop-free circuit: E_f %v, error %v; want empty, nil", epf, err)
	}
}

// TestLogicalPropagateMemoryFlatInHorizon: beyond the primary-input
// stream, the chase's allocation does not grow with the horizon. On
// edgeNetlist, whose q4 fault lives to the horizon, K = 1024 may
// allocate at most twice what K = 4 does; a chase that kept every
// cycle's frame, state or outputs would allocate hundreds of times
// more.
func TestLogicalPropagateMemoryFlatInHorizon(t *testing.T) {
	c := edgeNetlist(t)
	cc := engine.MustCompile(c)
	const n = 64
	allocated := func(cycles int) uint64 {
		best := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := LogicalPropagate(context.Background(), cc, cycles, n, stats.NewRNG(1), nil, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		stream := uint64(cycles * len(c.Inputs()) * ((n + 63) / 64) * 8)
		return best - stream
	}
	allocated(4) // memoizes the handle's logic levels
	short, long := allocated(4), allocated(1024)
	t.Logf("allocated beyond the PI stream: %d B at K=4, %d B at K=1024", short, long)
	if long > 2*short {
		t.Fatalf("allocated %d B beyond the PI stream at K=1024, %d B at K=4: grows with the horizon", long, short)
	}
}

// FuzzLogicalPropagate holds the chase to the reference on random
// generated sequential netlists, with fuzzed vector count (crossing
// the 1,024-vector chunk boundary), horizon, seed, reset state and
// worker count. Every E_f must match exactly.
func FuzzLogicalPropagate(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3), uint8(30), uint8(4), uint16(100), uint8(3), uint64(0), uint8(1))
	f.Add(uint64(7), uint64(5), uint8(11), uint8(120), uint8(9), uint16(2049), uint8(7), uint64(0xa5a5), uint8(3))
	f.Add(uint64(42), uint64(9), uint8(0), uint8(60), uint8(2), uint16(1024), uint8(0), uint64(1), uint8(2))
	f.Fuzz(func(t *testing.T, genSeed, simSeed uint64, flops, gates, depth uint8, nVec uint16, cycles uint8, init uint64, workers uint8) {
		p := gen.Profile{
			Name:  "fuzz",
			PIs:   2 + int(gates%7),
			POs:   1 + int(depth%5),
			Gates: 8 + int(gates%123),
			Depth: 2 + int(depth%16),
			Flops: 1 + int(flops%12),
			Seed:  genSeed,
		}
		c, err := gen.Generate(p)
		if err != nil {
			t.Skip() // unsatisfiable profile, not a chase bug
		}
		cc := engine.MustCompile(c)
		n := 1 + int(nVec%2100)
		k := 1 + int(cycles%8)
		reset := make([]bool, p.Flops)
		for fi := range reset {
			reset[fi] = init>>uint(fi)&1 == 1
		}
		want := reference(t, cc, k, n, simSeed, reset)
		got, err := LogicalPropagate(context.Background(), cc, k, n, stats.NewRNG(simSeed), reset, 1+int(workers%4))
		if err != nil {
			t.Fatal(err)
		}
		requireSameEpf(t, want, got, fmt.Sprintf("N=%d K=%d", n, k))
	})
}
