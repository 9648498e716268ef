package seq

import (
	"context"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/sertopt"
	"repro/internal/stats"
	"repro/internal/strike"
)

func coarseLib() *charlib.Library {
	return charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
}

// miniSeq builds: a -> n1=NOT(a) -> q=DFF(n1); o=NOT(q) is the PO.
// A strike at n1 can only matter by being captured into q; a captured
// flip is visible at o in the capture cycle and dies one cycle later
// (q's next state, NOT(a), does not depend on q).
func miniSeq() *ckt.Circuit {
	c := ckt.New("mini")
	a := c.MustAddGate("a", ckt.Input)
	q := c.MustAddGate("q", ckt.DFF)
	n1 := c.MustAddGate("n1", ckt.Not)
	o := c.MustAddGate("o", ckt.Not)
	c.MustConnect(a, n1)
	c.MustConnect(n1, q)
	c.MustConnect(q, o)
	c.MarkPO(o)
	return c
}

// chainSeq builds a two-stage flop chain:
// a -> n1=NOT(a) -> q1=DFF(n1) -> b1=BUFF(q1) -> q2=DFF(b1) -> o=NOT(q2) (PO).
func chainSeq() *ckt.Circuit {
	c := ckt.New("chain")
	a := c.MustAddGate("a", ckt.Input)
	q1 := c.MustAddGate("q1", ckt.DFF)
	q2 := c.MustAddGate("q2", ckt.DFF)
	n1 := c.MustAddGate("n1", ckt.Not)
	b1 := c.MustAddGate("b1", ckt.Buf)
	o := c.MustAddGate("o", ckt.Not)
	c.MustConnect(a, n1)
	c.MustConnect(n1, q1)
	c.MustConnect(q1, b1)
	c.MustConnect(b1, q2)
	c.MustConnect(q2, o)
	c.MarkPO(o)
	return c
}

func TestBuildFrameS27(t *testing.T) {
	c := gen.S27()
	fr, err := BuildFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Comb.Sequential() {
		t.Fatal("frame still has flops")
	}
	if len(fr.Comb.Gates) != len(c.Gates) {
		t.Fatalf("frame gate count %d != %d", len(fr.Comb.Gates), len(c.Gates))
	}
	// IDs are preserved: every frame gate mirrors the original.
	for i, g := range c.Gates {
		fg := fr.Comb.Gates[i]
		if fg.Name != g.Name {
			t.Fatalf("gate %d renamed %q -> %q", i, g.Name, fg.Name)
		}
		want := g.Type
		if want == ckt.DFF {
			want = ckt.Input
		}
		if fg.Type != want {
			t.Fatalf("gate %s type %v -> %v", g.Name, g.Type, fg.Type)
		}
	}
	if fr.NumRealPOs != 1 {
		t.Fatalf("NumRealPOs = %d, want 1", fr.NumRealPOs)
	}
	// s27 has 3 flops with distinct D drivers (G10, G11, G13), so the
	// frame must expose 4 output columns.
	if got := len(fr.Comb.Outputs()); got != 4 {
		t.Fatalf("frame PO columns = %d, want 4", got)
	}
	seen := map[int]bool{}
	for fi, col := range fr.FlopCols {
		if col < fr.NumRealPOs {
			t.Fatalf("flop %d capture column %d collides with a real PO", fi, col)
		}
		if seen[col] {
			t.Fatalf("flop capture columns not distinct: %v", fr.FlopCols)
		}
		seen[col] = true
	}
	// Frame sources: 4 PIs + 3 flop Qs.
	if got := len(fr.Comb.Inputs()); got != 7 {
		t.Fatalf("frame inputs = %d, want 7", got)
	}
}

func TestKnownLatchingStrike(t *testing.T) {
	c := miniSeq()
	lib := coarseLib()
	res, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, Vectors: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flops != 1 {
		t.Fatalf("flops = %d", res.Flops)
	}
	// Every vector lane shows the captured flip at o in the capture
	// cycle and the fault dies the cycle after: exactly one erroneous
	// latched PO value per fault.
	if epf := res.FlopReports[0].ErrorsPerFault; epf != 1 {
		t.Fatalf("ErrorsPerFault = %v, want exactly 1", epf)
	}
	// Closed form: the strike at n1 presents its full generated width
	// at q's capture column (n1 is that column's PO tap), and o's
	// strike presents its width at the real PO. T is large enough here
	// that no clamp binds.
	an := res.Frame
	n1, _ := c.GateByName("n1")
	o, _ := c.GateByName("o")
	T := 300e-12
	wantLatched := an.Cells.Cell(n1).FluxWeight() * strike.Clamp(an.GenWidth[n1], T) / 1e-12
	wantDirect := an.Cells.Cell(o).FluxWeight() * strike.Clamp(an.GenWidth[o], T) / 1e-12
	if !closeRel(res.LatchedU, wantLatched, 1e-12) {
		t.Fatalf("LatchedU = %v, want %v", res.LatchedU, wantLatched)
	}
	if !closeRel(res.DirectU, wantDirect, 1e-12) {
		t.Fatalf("DirectU = %v, want %v", res.DirectU, wantDirect)
	}
	// A strike at o must not be capturable (no path from o to the D
	// pin), and a strike at n1 must not reach the PO directly (the
	// only path crosses the flop).
	for _, g := range res.Gates {
		switch g.Name {
		case "n1":
			if g.DirectU != 0 || g.LatchedU == 0 {
				t.Fatalf("n1 report = %+v", g)
			}
		case "o":
			if g.LatchedU != 0 || g.DirectU == 0 {
				t.Fatalf("o report = %+v", g)
			}
		}
	}
}

func TestMultiCycleChainPropagation(t *testing.T) {
	c := chainSeq()
	lib := coarseLib()

	// One-cycle horizon: a fault captured in q1 has not yet traversed
	// q2, so it is invisible; a fault in q2 flips o immediately.
	res1, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 1, Vectors: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := res1.FlopReports[0].ErrorsPerFault; e != 0 {
		t.Fatalf("K=1: q1 ErrorsPerFault = %v, want 0 (needs two cycles)", e)
	}
	if e := res1.FlopReports[1].ErrorsPerFault; e != 1 {
		t.Fatalf("K=1: q2 ErrorsPerFault = %v, want 1", e)
	}

	// Two cycles suffice for the q1 fault to march through q2 to o,
	// then die; longer horizons change nothing.
	for _, k := range []int{2, 4, 8} {
		res, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: k, Vectors: 256, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if e := res.FlopReports[0].ErrorsPerFault; e != 1 {
			t.Fatalf("K=%d: q1 ErrorsPerFault = %v, want 1", k, e)
		}
		if e := res.FlopReports[1].ErrorsPerFault; e != 1 {
			t.Fatalf("K=%d: q2 ErrorsPerFault = %v, want 1", k, e)
		}
	}
}

// TestSerialWorkerPoolBitIdentical is the acceptance gate: s27 over 4
// cycles must produce bit-identical results for the serial path and
// any worker-pool width, and repeated runs must be deterministic.
func TestSerialWorkerPoolBitIdentical(t *testing.T) {
	c := gen.S27()
	lib := coarseLib()
	base, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, Vectors: 2048, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.LatchedU == 0 || base.DirectU == 0 {
		t.Fatalf("degenerate s27 result: %+v", base)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, Vectors: 2048, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.U != base.U || got.DirectU != base.DirectU || got.LatchedU != base.LatchedU || got.FIT != base.FIT {
			t.Fatalf("workers=%d: totals differ: %v vs %v", workers, got.U, base.U)
		}
		for i := range base.Gates {
			if got.Gates[i] != base.Gates[i] {
				t.Fatalf("workers=%d: gate %s differs: %+v vs %+v",
					workers, base.Gates[i].Name, got.Gates[i], base.Gates[i])
			}
		}
		for i := range base.FlopReports {
			if got.FlopReports[i] != base.FlopReports[i] {
				t.Fatalf("workers=%d: flop %s differs", workers, base.FlopReports[i].Name)
			}
		}
	}
}

// TestCombinationalEquivalence: on a flop-free circuit the sequential
// engine degenerates to the combinational Eq. 4 exactly — same frame,
// same seeds, bit-identical U with an empty latched component.
func TestCombinationalEquivalence(t *testing.T) {
	c := gen.C17()
	lib := coarseLib()
	res, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, Vectors: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatchedU != 0 || res.Flops != 0 {
		t.Fatalf("combinational circuit grew a latched component: %+v", res)
	}
	cells, err := sertopt.InitialSizing(c, lib, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	an, err := aserta.AnalyzeCompiled(engine.MustCompile(c), cells, aserta.Config{Vectors: 4096, Seed: 1, POLoad: 2e-15})
	if err != nil {
		t.Fatal(err)
	}
	if res.U != an.U {
		t.Fatalf("sequential U = %v != combinational U = %v", res.U, an.U)
	}
}

func TestAnalyzeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCompiledContext(ctx, engine.MustCompile(gen.S27()), coarseLib(), Options{Cycles: 2, Vectors: 128}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestInitStateChangesTrace(t *testing.T) {
	// The reset state feeds the fault-free trace; an all-ones reset on
	// s27 must produce a (deterministically) different latched
	// component than the all-zero default only if some flop's fault
	// visibility depends on state — at minimum the analysis must run
	// and stay deterministic.
	c := gen.S27()
	lib := coarseLib()
	init := []bool{true, true, true}
	a, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, Vectors: 1024, Seed: 3, InitState: init})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, Vectors: 1024, Seed: 3, InitState: init})
	if err != nil {
		t.Fatal(err)
	}
	if a.U != b.U {
		t.Fatal("init-state analysis not deterministic")
	}
	if _, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 4, InitState: []bool{true}}); err == nil {
		t.Fatal("wrong-length init state accepted")
	}
}

func closeRel(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d == 0
	}
	return d <= eps*m
}

func TestInitStateRejectedOnCombinational(t *testing.T) {
	// A bogus reset state must be rejected, not silently ignored, even
	// when the circuit has no flops to apply it to.
	if _, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(gen.C17()), coarseLib(), Options{Cycles: 2, Vectors: 64, InitState: []bool{true}}); err == nil {
		t.Fatal("InitState on a flop-free circuit accepted")
	}
}

func TestFaultPropagationCancellable(t *testing.T) {
	// Cancel after the electrical stage is done but while fault
	// propagation would run: a context cancelled mid-analysis must
	// surface as an error rather than burning through all flops.
	ctx, cancel := context.WithCancel(context.Background())
	lib := coarseLib()
	c := gen.S27()
	// Warm the library so the pre-stage checks pass quickly, then race
	// cancellation against the run; either the error is ctx.Err() or
	// (if the run won) the result is valid. Deterministic cancellation
	// is exercised by the pre-cancelled case below.
	if _, err := AnalyzeCompiledContext(context.Background(), engine.MustCompile(c), lib, Options{Cycles: 1, Vectors: 64}); err != nil {
		t.Fatal(err)
	}
	cancel()
	opts := Options{Cycles: 4, Vectors: 256}.withDefaults()
	if _, err := strike.LogicalPropagate(ctx, engine.MustCompile(c), opts.Cycles, opts.Vectors,
		stats.NewRNG(opts.Seed+faultSeedOffset), opts.InitState, opts.Workers); err == nil {
		t.Fatal("cancelled fault propagation returned no error")
	}
}
