package aserta

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/strike"
)

// TestRecomputeUIncrementalMatchesFull drives the incremental delta
// path with single-gate and multi-gate delay perturbations on c432 and
// checks it against the full re-evaluation bit for bit.
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
		if inc != full {
			t.Errorf("%s: incremental U = %.17g, full U = %.17g", name, inc, full)
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
	c := poFanout(t)
	po1, _ := c.GateByName("po1")
	sink, _ := c.GateByName("sink")
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
	if inc != full {
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
	if inc2 != full2 {
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
		if inc != want {
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
// incremental answer and the full pass bit for bit.
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
		if inc != ref || inc != full {
			t.Fatalf("gate %d: incremental U = %.17g, fresh analysis %.17g, full %.17g", id, inc, ref, full)
		}
	}
}

// poFanout is a netlist whose PO po1 also drives logic, the shape of
// a sequential frame's D-pin tap: sink = NAND(po1, b), itself a PO.
func poFanout(t *testing.T) *ckt.Circuit {
	t.Helper()
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
	return c
}

// TestSourcesUMatchesAnalyzeSources is SourcesU's end-to-end oracle. On
// every ISCAS-85 profile and on a netlist whose POs drive logic,
// back-to-back calls on one analysis change one gate, several gates or
// more than half the gates (the full-pass fallback once delays move),
// in their delays, generated widths or flux weights alone or in all
// three at once. A last call per circuit moves one gate's delay and
// the widths of a gate in its fanin cone and of a gate outside it. Each
// U must equal, bit for bit, the U of a full AnalyzeSources of the same
// sources, and a source slice of the wrong length is refused.
func TestSourcesUMatchesAnalyzeSources(t *testing.T) {
	circuits := []*ckt.Circuit{poFanout(t)}
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	cfg := Config{Vectors: 1000, Seed: 3}
	for _, c := range circuits {
		cc := engine.MustCompile(c)
		cells := nominal(t, c, lib())
		an, err := AnalyzeCompiled(cc, cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var logic []int
		for _, g := range c.Gates {
			if g.Type != ckt.Input {
				logic = append(logic, g.ID)
			}
		}
		rng := stats.NewRNG(uint64(len(c.Gates)))
		base := func() *strike.Sources {
			return &strike.Sources{
				Loads:    an.Loads,
				Delays:   slices.Clone(an.Delays),
				GenWidth: slices.Clone(an.GenWidth),
				Flux:     slices.Clone(an.Flux),
			}
		}
		if _, err := an.SourcesU(&strike.Sources{Delays: an.Delays, GenWidth: an.GenWidth[1:], Flux: an.Flux}); err == nil {
			t.Fatalf("%s: SourcesU accepted a short width slice", c.Name)
		}
		check := func(label string, src *strike.Sources) {
			t.Helper()
			got, err := an.SourcesU(src)
			if err != nil {
				t.Fatal(err)
			}
			full, err := AnalyzeSources(cc, cells, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != full.U {
				t.Fatalf("%s, %s: SourcesU = %.17g, AnalyzeSources U = %.17g", c.Name, label, got, full.U)
			}
		}
		kinds := []struct {
			name                string
			delay, width, fluxw bool
		}{
			{"delays", true, false, false},
			{"widths", false, true, false},
			{"flux", false, false, true},
			{"all three", true, true, true},
		}
		for _, n := range []int{1, 4, len(logic)*3/4 + 1} {
			for _, k := range kinds {
				src := base()
				for _, pick := range rng.Perm(len(logic))[:min(n, len(logic))] {
					i := logic[pick]
					if k.delay {
						src.Delays[i] *= 0.5 + 1.5*rng.Float64()
					}
					if k.width {
						src.GenWidth[i] *= 0.25 + 3.75*rng.Float64()
					}
					if k.fluxw {
						src.Flux[i] *= 0.5 + 1.5*rng.Float64()
					}
				}
				check(fmt.Sprintf("%s of %d gates", k.name, n), src)
			}
		}

		// One gate's delay, the width of a gate in its fanin cone and of
		// one outside it.
		src := base()
		for _, i := range cc.TopoOrder() {
			if c.Gates[i].Type == ckt.Input {
				continue
			}
			cone := faninCone(c, i)
			in, out := -1, -1
			for _, j := range logic {
				if j != i && cone[j] && in < 0 {
					in = j
				}
				if !cone[j] && j != i && out < 0 {
					out = j
				}
			}
			if in < 0 || out < 0 {
				continue
			}
			src.Delays[i] *= 1.5
			src.GenWidth[in] *= 2
			src.GenWidth[out] *= 0.5
			break
		}
		check("widths inside and outside a delay's cone", src)
		check("baseline", base())
	}
}

// TestSourcesURefusesNonFinite hands SourcesU a NaN, +Inf or -Inf
// delay, generated width or flux weight at a PO gate and at an interior
// gate of c432, and RecomputeU the same delays: each must be an error
// naming the gate and the source. A NaN width at a PO gate used to
// panic in the step (iv) interpolation, and every other case returned
// a U. After the refusals the same Analysis must still score its own
// sources and a finite change exactly.
func TestSourcesURefusesNonFinite(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	cells := nominal(t, c, lib())
	cfg := Config{Vectors: 500, Seed: 1}
	an, err := AnalyzeCompiled(cc, cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := func() *strike.Sources {
		return &strike.Sources{
			Loads:    an.Loads,
			Delays:   slices.Clone(an.Delays),
			GenWidth: slices.Clone(an.GenWidth),
			Flux:     slices.Clone(an.Flux),
		}
	}
	po, interior := c.Outputs()[0], -1
	for _, id := range cc.TopoOrder() {
		if g := c.Gates[id]; g.Type != ckt.Input && !g.PO && interior < 0 {
			interior = id
		}
	}
	refused := func(label, name, what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", label)
		}
		if want := what + " of gate " + name + " is"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name %q", label, err, want)
		}
	}
	fields := []struct {
		what string
		of   func(*strike.Sources) []float64
	}{
		{"delay", func(s *strike.Sources) []float64 { return s.Delays }},
		{"generated width", func(s *strike.Sources) []float64 { return s.GenWidth }},
		{"flux weight", func(s *strike.Sources) []float64 { return s.Flux }},
	}
	for _, id := range []int{po, interior} {
		name := c.Gates[id].Name
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, f := range fields {
				src := base()
				f.of(src)[id] = v
				_, err := an.SourcesU(src)
				refused(fmt.Sprintf("SourcesU, %s %g at gate %s", f.what, v, name), name, f.what, err)
				if f.what == "delay" {
					_, err := an.RecomputeU(src.Delays)
					refused(fmt.Sprintf("RecomputeU, delay %g at gate %s", v, name), name, f.what, err)
				}
			}
		}
	}
	if u, err := an.SourcesU(base()); err != nil || u != an.U {
		t.Fatalf("own sources after the refusals: U = %.17g, %v; want %.17g", u, err, an.U)
	}
	src := base()
	src.Delays[interior] *= 1.5
	src.GenWidth[po] *= 2
	src.Flux[po] *= 0.5
	got, err := an.SourcesU(src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := AnalyzeSources(cc, cells, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != full.U {
		t.Fatalf("finite change after the refusals: SourcesU = %.17g, AnalyzeSources U = %.17g", got, full.U)
	}
}

// faninCone marks the gates gate i is reachable from.
func faninCone(c *ckt.Circuit, i int) []bool {
	cone := make([]bool, len(c.Gates))
	stack := []int{i}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[g].Fanin {
			if !cone[f] {
				cone[f] = true
				stack = append(stack, f)
			}
		}
	}
	return cone
}
