package aserta

import (
	"math"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// TestRecomputeUIncrementalMatchesFull drives the incremental delta
// path with single-gate and multi-gate delay perturbations on c432 and
// checks it against the exact full re-evaluation to 1e-12 relative.
func TestRecomputeUIncrementalMatchesFull(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := nominal(t, c, lib)
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(99)
	check := func(name string, delays []float64) {
		t.Helper()
		inc, err := an.RecomputeU(delays)
		if err != nil {
			t.Fatal(err)
		}
		full, err := an.RecomputeUFull(delays)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * math.Max(math.Abs(full), 1)
		if math.Abs(inc-full) > tol {
			t.Errorf("%s: incremental U = %.17g, full U = %.17g (|Δ| = %g > %g)",
				name, inc, full, math.Abs(inc-full), tol)
		}
	}

	// Unchanged delays: must short-circuit to the stored U.
	u, err := an.RecomputeU(an.Delays)
	if err != nil {
		t.Fatal(err)
	}
	if u != an.U {
		t.Errorf("unchanged delays: U = %g, want stored %g", u, an.U)
	}

	// Single-gate perturbations across the circuit.
	for trial := 0; trial < 20; trial++ {
		id := rng.Intn(len(c.Gates))
		if c.Gates[id].Type == ckt.Input {
			continue
		}
		d := append([]float64(nil), an.Delays...)
		d[id] *= 1 + 0.25*rng.Float64()
		check("single-gate", d)
	}

	// Small random subsets.
	for trial := 0; trial < 5; trial++ {
		d := append([]float64(nil), an.Delays...)
		for n := 0; n < 6; n++ {
			id := rng.Intn(len(c.Gates))
			d[id] *= 1 + 0.5*rng.Float64()
		}
		check("subset", d)
	}

	// Global perturbation (trips the all-affected fallback to full).
	d := make([]float64, len(an.Delays))
	for i, v := range an.Delays {
		d[i] = 1.5 * v
	}
	check("global", d)

	// The analysis baseline must be untouched by any of the above.
	if u, err := an.RecomputeU(an.Delays); err != nil || u != an.U {
		t.Errorf("baseline corrupted: U = %g err = %v, want %g", u, err, an.U)
	}
}

// TestRecomputeUIncrementalPOWithFanout covers the unusual-netlist
// case where a PO gate drives further logic: a PO's rows are the fixed
// sample ladder regardless of delays, so a delay change downstream of
// the PO must neither corrupt predecessor reads of the PO's rows nor
// propagate a phantom delta through it.
func TestRecomputeUIncrementalPOWithFanout(t *testing.T) {
	c := ckt.New("po-fanout")
	a := c.MustAddGate("a", ckt.Input)
	b := c.MustAddGate("b", ckt.Input)
	x := c.MustAddGate("x", ckt.Nand)
	c.MustConnect(a, x)
	c.MustConnect(b, x)
	po1 := c.MustAddGate("po1", ckt.Nand)
	c.MustConnect(x, po1)
	c.MustConnect(a, po1)
	c.MarkPO(po1)
	sink := c.MustAddGate("sink", ckt.Nand)
	c.MustConnect(po1, sink)
	c.MustConnect(b, sink)
	c.MarkPO(sink)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := nominal(t, c, lib)
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 1000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Change the delay of the gate downstream of the fanout PO: the
	// affected-set propagation reaches po1, whose row must keep
	// serving the baseline ladder to x.
	d := append([]float64(nil), an.Delays...)
	d[sink] *= 2
	inc, err := an.RecomputeU(d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := an.RecomputeUFull(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc-full) > 1e-12*math.Max(full, 1) {
		t.Errorf("PO-with-fanout: incremental U = %.17g, full U = %.17g", inc, full)
	}

	// And changing the PO's own delay must flow to its predecessors.
	d2 := append([]float64(nil), an.Delays...)
	d2[po1] *= 3
	inc2, err := an.RecomputeU(d2)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := an.RecomputeUFull(d2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc2-full2) > 1e-12*math.Max(full2, 1) {
		t.Errorf("PO delay change: incremental U = %.17g, full U = %.17g", inc2, full2)
	}
}

// TestRecomputeUConsecutiveIncremental exercises the production call
// pattern — many back-to-back incremental RecomputeU calls with
// different single-gate perturbations and no interleaved full pass —
// which relies on the attenuation table's dirty-row restore. Expected
// values come from the exact full pass of an independent Analysis, so
// the delta machinery under test never produces its own reference.
func TestRecomputeUConsecutiveIncremental(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := nominal(t, c, lib)
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 1500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := AnalyzeCompiled(engine.MustCompile(c), cells, Config{Vectors: 1500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(7)
	var gates []int
	for _, g := range c.Gates {
		if g.Type != ckt.Input {
			gates = append(gates, g.ID)
		}
	}
	for probe := 0; probe < 15; probe++ {
		id := gates[rng.Intn(len(gates))]
		d := append([]float64(nil), an.Delays...)
		d[id] *= 1 + 0.3*rng.Float64()
		inc, err := an.RecomputeU(d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RecomputeUFull(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(inc-want) > 1e-12*math.Max(math.Abs(want), 1) {
			t.Fatalf("probe %d (gate %s): incremental U = %.17g after consecutive calls, full U = %.17g",
				probe, c.Gates[id].Name, inc, want)
		}
	}
}

// TestWSTableOnDemand: an analysis builds its WS table only when asked,
// at the baseline delays whatever the shared attenuation table holds.
// After a full pass at foreign delays, several goroutines ask at once
// and must all get one table, equal bit for bit to a fresh analysis'
// table; the incremental RecomputeU that follows, which serves
// unaffected rows from that table, must equal the fresh analysis' own
// incremental answer bit for bit and the exact full pass to 1e-12.
func TestWSTableOnDemand(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	cells := nominal(t, c, lib)
	cfg := Config{Vectors: 1500, Seed: 5}
	an, err := AnalyzeCompiled(engine.MustCompile(c), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := AnalyzeCompiled(engine.MustCompile(c), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := make([]float64, len(an.Delays))
	for i, d := range an.Delays {
		slow[i] = 3 * d
	}
	if _, err := an.RecomputeUFull(slow); err != nil {
		t.Fatal(err)
	}

	const callers = 4
	tables := make([][][][]float64, callers)
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g] = an.WSTable()
		}(g)
	}
	wg.Wait()
	want := fresh.WSTable()
	for g, ws := range tables {
		if &ws[0] != &tables[0][0] {
			t.Fatalf("caller %d got a second table", g)
		}
	}
	ws := tables[0]
	for i := range want {
		for j := range want[i] {
			for k := range want[i][j] {
				if ws[i][j][k] != want[i][j][k] {
					t.Fatalf("WS[%d][%d][%d] = %v after a foreign-delay pass, fresh analysis %v", i, j, k, ws[i][j][k], want[i][j][k])
				}
			}
		}
	}

	for _, g := range c.Gates {
		if g.Type == ckt.Input || g.ID%50 != 0 {
			continue
		}
		id := g.ID
		d := append([]float64(nil), an.Delays...)
		d[id] *= 1.2
		inc, err := an.RecomputeU(d)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fresh.RecomputeU(d)
		if err != nil {
			t.Fatal(err)
		}
		full, err := fresh.RecomputeUFull(d)
		if err != nil {
			t.Fatal(err)
		}
		if inc != ref || math.Abs(inc-full) > 1e-12*math.Max(math.Abs(full), 1) {
			t.Fatalf("gate %d: incremental U = %.17g, fresh analysis %.17g, full %.17g", id, inc, ref, full)
		}
	}
}
