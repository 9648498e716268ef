package sertopt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// evalSetup is the optimizer's matching context for one circuit: the
// baseline and its delays, the run's voltage menus and the first
// nullspace direction.
type evalSetup struct {
	cc    *engine.CompiledCircuit
	menus MatchConfig
	base  charlib.Assignment
	d0    []float64
	dir   []float64
}

func newEvalSetup(t *testing.T, name string) *evalSetup {
	t.Helper()
	c, err := gen.ISCAS85(name)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := engine.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	base, err := InitialSizing(c, lib(), engine.DefaultPOLoad)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := gateDelays(c, lib(), cellsOf(base), engine.DefaultPOLoad)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	basis := topo.Nullspace(1)
	if len(basis) == 0 {
		t.Fatal("no nullspace directions")
	}
	return &evalSetup{
		cc: cc,
		// Two VDDs, so the successor-VDD rule binds.
		menus: MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
		base:  base,
		d0:    d0,
		dir:   basis[0],
	}
}

// matcher returns a fresh matcher for the setup's menus and baseline.
func (s *evalSetup) matcher(t *testing.T) *matcher {
	t.Helper()
	m, err := newMatcher(s.cc, s.menus, s.base)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matched spells the matcher's current assignment out as a cell list.
func matched(m *matcher) []charlib.Cell {
	return cellsOf(charlib.Assignment{T: m.tab, IDs: m.ids})
}

// refSettings returns the reference matcher's configuration equal to
// what newMatcher derives from menus and baseline: the baseline as
// hints, its largest size (at least 1) as the cap, and the default PO
// load.
func refSettings(c *ckt.Circuit, menus MatchConfig, baseline charlib.Assignment) refMatchConfig {
	hints := cellsOf(baseline)
	maxSize := 1.0
	for _, g := range c.Gates {
		if g.Type != ckt.Input && hints[g.ID].Size > maxSize {
			maxSize = hints[g.ID].Size
		}
	}
	return refMatchConfig{VDDs: menus.VDDs, Vths: menus.Vths, MaxSize: maxSize, POLoad: engine.DefaultPOLoad, Hints: hints}
}

// probe returns the desired delays of a single-coordinate SQP probe,
// d0 + step·z along the first nullspace direction scaled to
// max-component 1, clamped like the optimizer's.
func (s *evalSetup) probe(step float64) []float64 {
	d := append([]float64(nil), s.d0...)
	m := maxAbs(s.dir)
	for i := range d {
		d[i] += step * s.dir[i] / m
		if d[i] < 0.5e-12 {
			d[i] = 0.5e-12
		}
	}
	return d
}

// scrambled returns from with the desired delay of every gate within
// maxDepth of a PO (every gate for maxDepth < 0) scaled by a random
// factor in [0.3, 2.3).
func (s *evalSetup) scrambled(rng *stats.RNG, from []float64, maxDepth int) []float64 {
	depth := s.cc.DepthFromPO()
	d := append([]float64(nil), from...)
	for i := range d {
		if maxDepth < 0 || (depth[i] >= 0 && depth[i] <= maxDepth) {
			d[i] *= 0.3 + 2*rng.Float64()
		}
	}
	return d
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// TestMatcherCacheMatchesFresh runs one matcher through the kinds of
// desired-delay sequences the optimizer produces — θ = 0, a
// single-direction probe, θ = 0 again, a dense random move, the probe
// again — and holds every step to a fresh matcher plus the per-edge
// refEnumerateSources on its cells: same cells, and the same loads,
// delays, glitch widths and flux weights, bit for bit. The cells must
// also equal the table-free reference matcher's. The band steps move
// only the gates next to the POs, so their drivers keep their
// (scrambled) desired delays while their loads and successor VDDs
// change: the cases the decision key's load and VDD entries exist for.
func TestMatcherCacheMatchesFresh(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			s := newEvalSetup(t, name)
			ref := refSettings(s.cc.Circuit(), s.menus, s.base)
			rng := stats.NewRNG(7)
			probe := s.probe(20e-12)
			dense := s.scrambled(rng, s.d0, -1)
			band := s.scrambled(rng, dense, 1)
			steps := []struct {
				name    string
				desired []float64
			}{
				{"theta0", s.d0},
				{"probe", probe},
				{"theta0-again", s.d0},
				{"dense", dense},
				{"probe-again", probe},
				{"dense-again", dense},
				{"po-band", band},
				{"po-band2", s.scrambled(rng, band, 1)},
				{"po-band3", s.scrambled(rng, band, 1)},
				{"theta0-end", s.d0},
			}
			m := s.matcher(t)
			for _, st := range steps {
				if err := m.match(st.desired); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				// θ = 0 reproduces the baseline, whose cell IDs seed
				// the optimizer's memo.
				if strings.HasPrefix(st.name, "theta0") {
					for id, want := range m.hint {
						if m.ids[id] != want {
							t.Fatalf("%s: gate %d matched cell %d, want its hint %d", st.name, id, m.ids[id], want)
						}
					}
				}
				fresh := s.matcher(t)
				if err := fresh.match(st.desired); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				cells := matched(fresh)
				want, err := referenceMatch(s.cc, lib(), st.desired, ref)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if msg := diffCells(st.name+" fresh cells", cells, want); msg != "" {
					t.Fatal(msg)
				}
				src, err := refEnumerateSources(s.cc, lib(), cells, engine.DefaultPOLoad)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if msg := diffCells(st.name+" cells", matched(m), cells); msg != "" {
					t.Fatal(msg)
				}
				for _, f := range []struct {
					field     string
					got, want []float64
				}{
					{"Loads", m.src.Loads, src.Loads},
					{"Delays", m.src.Delays, src.Delays},
					{"GenWidth", m.src.GenWidth, src.GenWidth},
					{"Flux", m.src.Flux, src.Flux},
				} {
					if msg := diffFloats(st.name+" "+f.field, f.got, f.want); msg != "" {
						t.Fatal(msg)
					}
				}
			}
		})
	}
}

// TestMetricsCoreMatchesEvaluateMetrics holds the optimizer's metrics —
// the core fed from the matcher and the cell table — to
// EvaluateMetrics on an analysis of the same cells and to the
// library-only reference on random assignments, exactly.
func TestMetricsCoreMatchesEvaluateMetrics(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			s := newEvalSetup(t, name)
			rng := stats.NewRNG(11)
			m := s.matcher(t)
			for trial := 0; trial < 6; trial++ {
				if err := m.match(s.scrambled(rng, s.d0, -1)); err != nil {
					t.Fatal(err)
				}
				cells := charlib.Assignment{T: m.tab, IDs: append([]int32(nil), m.ids...)}
				an, err := aserta.AnalyzeCompiled(s.cc, cells, aserta.Config{Vectors: 2000, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				got := metricsOf(s.cc, an.Sens, m.src.Loads, m.src.Delays, cells)
				want := EvaluateMetrics(s.cc, an)
				ref, err := referenceMetrics(s.cc, lib(), cellsOf(cells), an.Sens, engine.DefaultPOLoad)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []Metrics{want, ref} {
					if msg := diffFloats(fmt.Sprintf("trial %d metrics", trial), []float64{got.Delay, got.Energy, got.Area}, []float64{w.Delay, w.Energy, w.Area}); msg != "" {
						t.Fatal(msg)
					}
				}
			}
		})
	}
}

// TestErrorsMatchReference pins the errors of the matcher and the
// optimizer to the reference's. No feasible cell: every PO is hinted
// at a higher VDD than the menu offers and asked for its hint's own
// delay, so it keeps the hint and leaves its drivers, whose hints and
// menu sit at the lower VDD, without a cell. A library error: a grid
// whose load axis is not increasing fails every characterization, and
// the optimizer now meets it first in the baseline's one derivation of
// its sources.
func TestErrorsMatchReference(t *testing.T) {
	c := gen.C17()
	cc, err := engine.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	base, err := InitialSizing(c, lib(), engine.DefaultPOLoad)
	if err != nil {
		t.Fatal(err)
	}
	hints := charlib.Assignment{T: base.T, IDs: append([]int32(nil), base.IDs...)}
	for _, id := range c.Outputs() {
		cell := hints.Cell(id)
		cell.VDD = 1.2
		if hints.IDs[id], err = hints.T.Intern(cell); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, got, want error) {
		t.Helper()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: error %v, want %v", what, got, want)
		}
	}
	match := func(menus MatchConfig, baseline charlib.Assignment, desired []float64) error {
		m, err := newMatcher(cc, menus, baseline)
		if err != nil {
			return err
		}
		return m.match(desired)
	}

	menus := MatchConfig{VDDs: []float64{1.0}, Vths: []float64{0.2}}
	desired, err := gateDelays(c, lib(), cellsOf(hints), engine.DefaultPOLoad)
	if err != nil {
		t.Fatal(err)
	}
	got := match(menus, hints, desired)
	_, want := referenceMatch(cc, lib(), desired, refSettings(c, menus, hints))
	same("no feasible cell", got, want)

	broken := charlib.NewLibrary(devmodel.Tech70nm(), charlib.Grid{
		Sizes: []float64{1, 4}, Lengths: []float64{70e-9}, VDDs: []float64{1.0}, Vths: []float64{0.2},
		Loads: []float64{2e-15, 1e-15},
	})
	d0, err := gateDelays(c, lib(), cellsOf(base), engine.DefaultPOLoad)
	if err != nil {
		t.Fatal(err)
	}
	// The same baseline cells in a table over the broken library.
	brokenHints, err := charlib.NewTable(broken).InternAll(c, cellsOf(base))
	if err != nil {
		t.Fatal(err)
	}
	got = match(MatchConfig{}, brokenHints, d0)
	_, want = referenceMatch(cc, broken, d0, refSettings(c, MatchConfig{}, brokenHints))
	same("matcher, broken library", got, want)

	opts := Options{Vectors: 500, Iterations: 1, MaxBasis: 2}
	brokenBase, err := InitialSizing(c, broken, engine.DefaultPOLoad)
	if err != nil {
		t.Fatal(err)
	}
	_, got = OptimizeCompiled(cc, broken, opts)
	_, want = refEnumerateSources(cc, broken, cellsOf(brokenBase), engine.DefaultPOLoad)
	same("OptimizeCompiled, broken library", got, want)
}

// TestConcurrentOptimizeSharedLibrary runs two optimizations at once on
// their own handles against one library, for several rounds: each
// result must equal its serial run (the cell table, decision cache and
// memo are per run; only the library's memo is shared).
func TestConcurrentOptimizeSharedLibrary(t *testing.T) {
	names := []string{"c432", "c499"}
	opts := Options{
		Match:      MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
		Vectors:    2000,
		Iterations: 3,
		MaxBasis:   8,
		Seed:       5,
	}
	run := func(name string) (*Result, error) {
		c, err := gen.ISCAS85(name)
		if err != nil {
			return nil, err
		}
		return OptimizeCompiled(engine.MustCompile(c), lib(), opts)
	}
	serial := make([]*Result, len(names))
	for i, name := range names {
		res, err := run(name)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				res, err := run(name)
				if err != nil {
					t.Errorf("round %d %s: %v", round, name, err)
					return
				}
				if msg := diffResults(res, serial[i]); msg != "" {
					t.Errorf("round %d %s: %s", round, name, msg)
				}
			}(i, name)
		}
		wg.Wait()
	}
}
