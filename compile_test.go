package ser

import (
	"context"
	"sync"
	"testing"

	"repro/internal/ckt"
)

// TestCompiledMatchesOnTheFly asserts the compiled entry points are
// bit-identical to the compile-on-the-fly ones for all three flows.
func TestCompiledMatchesOnTheFly(t *testing.T) {
	sys := NewSystem(CoarseCharacterization)

	c, err := Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	h, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	aop := AnalysisOptions{Vectors: 1200, Seed: 11}
	cold, err := sys.Analyze(c, aop)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.AnalyzeCompiledContext(context.Background(), h, aop)
	if err != nil {
		t.Fatal(err)
	}
	if warm.U != cold.U {
		t.Errorf("AnalyzeCompiledContext U = %v, Analyze U = %v", warm.U, cold.U)
	}
	for i := range cold.Gates {
		if warm.Gates[i] != cold.Gates[i] {
			t.Fatalf("gate %d report differs: %+v vs %+v", i, warm.Gates[i], cold.Gates[i])
		}
	}

	oop := OptimizeOptions{Vectors: 800, Iterations: 2, MaxBasis: 4, Seed: 5}
	oCold, err := sys.Optimize(c, oop)
	if err != nil {
		t.Fatal(err)
	}
	oWarm, err := sys.OptimizeCompiledContext(context.Background(), h, oop)
	if err != nil {
		t.Fatal(err)
	}
	if oWarm.UDecrease != oCold.UDecrease || oWarm.BaselineU != oCold.BaselineU || oWarm.OptimizedU != oCold.OptimizedU {
		t.Errorf("OptimizeCompiledContext differs: %+v vs %+v", oWarm, oCold)
	}

	s, err := Benchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	sop := SequentialOptions{Cycles: 4, Vectors: 1000, Seed: 3}
	sCold, err := sys.AnalyzeSequential(s, sop)
	if err != nil {
		t.Fatal(err)
	}
	sWarm, err := sys.AnalyzeSequentialCompiledContext(context.Background(), hs, sop)
	if err != nil {
		t.Fatal(err)
	}
	if sWarm.U != sCold.U || sWarm.DirectU != sCold.DirectU || sWarm.LatchedU != sCold.LatchedU || sWarm.FIT != sCold.FIT {
		t.Errorf("AnalyzeSequentialCompiledContext differs: %+v vs %+v", sWarm, sCold)
	}
}

// TestCompiledHandleConcurrentSharing is the engine-layer concurrency
// acceptance test: 16 goroutines share one compiled handle across
// Analyze, AnalyzeSequential and Optimize (run with -race in CI), and
// every result must be bit-identical to the serial references.
func TestCompiledHandleConcurrentSharing(t *testing.T) {
	sys := NewSystem(CoarseCharacterization)
	c, err := Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}

	aop := AnalysisOptions{Vectors: 1000, Seed: 2}
	// AnalyzeSequential accepts combinational circuits (the latched
	// component is then zero), so all three flows share one handle.
	sop := SequentialOptions{Cycles: 2, Vectors: 1000, Seed: 2}
	oop := OptimizeOptions{Vectors: 600, Iterations: 1, MaxBasis: 3, Seed: 2}

	// Serial references on a fresh handle.
	ref, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	aRef, err := sys.AnalyzeCompiledContext(context.Background(), ref, aop)
	if err != nil {
		t.Fatal(err)
	}
	sRef, err := sys.AnalyzeSequentialCompiledContext(context.Background(), ref, sop)
	if err != nil {
		t.Fatal(err)
	}
	oRef, err := sys.OptimizeCompiledContext(context.Background(), ref, oop)
	if err != nil {
		t.Fatal(err)
	}

	// 16 goroutines hammer one shared handle, mixing all three flows.
	h, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				rep, err := sys.AnalyzeCompiledContext(context.Background(), h, aop)
				if err != nil {
					errs[i] = err
					return
				}
				if rep.U != aRef.U {
					t.Errorf("goroutine %d: Analyze U = %v, serial %v", i, rep.U, aRef.U)
				}
			case 1:
				rep, err := sys.AnalyzeSequentialCompiledContext(context.Background(), h, sop)
				if err != nil {
					errs[i] = err
					return
				}
				if rep.U != sRef.U || rep.DirectU != sRef.DirectU || rep.LatchedU != sRef.LatchedU {
					t.Errorf("goroutine %d: AnalyzeSequential U = %v/%v/%v, serial %v/%v/%v",
						i, rep.U, rep.DirectU, rep.LatchedU, sRef.U, sRef.DirectU, sRef.LatchedU)
				}
			case 2:
				res, err := sys.OptimizeCompiledContext(context.Background(), h, oop)
				if err != nil {
					errs[i] = err
					return
				}
				if res.UDecrease != oRef.UDecrease || res.OptimizedU != oRef.OptimizedU {
					t.Errorf("goroutine %d: Optimize %v/%v, serial %v/%v",
						i, res.UDecrease, res.OptimizedU, oRef.UDecrease, oRef.OptimizedU)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestTMRHandle: the hardened handle analyzes like the underlying TMR
// circuit and leaves the input handle untouched.
func TestTMRHandle(t *testing.T) {
	sys := NewSystem(CoarseCharacterization)
	c, err := Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	h, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	th, err := TMR(h)
	if err != nil {
		t.Fatal(err)
	}
	if th.Circuit().NumGates() <= 3*c.NumGates() {
		t.Fatalf("TMR circuit has %d gates for a %d-gate input; expected triplication plus voters",
			th.Circuit().NumGates(), c.NumGates())
	}
	if h.Circuit().NumGates() != c.NumGates() {
		t.Fatal("TMR mutated the input handle")
	}
	rep, err := sys.AnalyzeCompiledContext(context.Background(), th, AnalysisOptions{Vectors: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.U <= 0 {
		t.Fatal("TMR analysis returned non-positive U")
	}
}

// TestCompileRejectsInvalid: a handle is always analyzable, so Compile
// must reject structurally broken netlists up front.
func TestCompileRejectsInvalid(t *testing.T) {
	// x = AND(a, y); y = AND(a, x): a combinational cycle no flop breaks.
	c := ckt.New("cycle")
	a := c.MustAddGate("a", ckt.Input)
	x := c.MustAddGate("x", ckt.And)
	y := c.MustAddGate("y", ckt.And)
	c.MustConnect(a, x)
	c.MustConnect(y, x)
	c.MustConnect(a, y)
	c.MustConnect(x, y)
	c.MarkPO(x)
	if _, err := Compile(c); err == nil {
		t.Fatal("Compile accepted a combinational cycle")
	}
}
