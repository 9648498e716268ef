package sertopt

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/stats"
	"repro/internal/strike"
)

// evalSetup is the optimizer's matching context for one circuit: the
// baseline's delays, the topology, its first nullspace direction and
// the run's MatchConfig.
type evalSetup struct {
	cc   *engine.CompiledCircuit
	cfg  MatchConfig
	d0   []float64
	topo *Topology
	dir  []float64
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
	const poLoad = 2e-15
	base, err := InitialSizing(c, lib(), 0, poLoad)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := gateDelays(c, lib(), base, poLoad)
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
		cfg:  MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}, MaxSize: 4, POLoad: poLoad, Hints: base},
		d0:   d0,
		topo: topo,
		dir:  basis[0],
	}
}

// probe returns the desired delays of a single-coordinate SQP probe,
// d0 + step·z along the first nullspace direction scaled to
// max-component 1, clamped like the optimizer's.
func (s *evalSetup) probe(step float64) []float64 {
	d := s.topo.ColumnDelays(s.d0)
	for col := range d {
		d[col] += step * s.dir[col] / maxAbs(s.dir)
	}
	perGate := s.topo.PerGate(d, len(s.d0))
	for i := range perGate {
		if perGate[i] < 0.5e-12 {
			perGate[i] = 0.5e-12
		}
	}
	return perGate
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
// again — and holds every step to a fresh MatchDelaysCompiled plus
// strike.EnumerateSources on its cells: same cells, and the same loads,
// delays, glitch widths and flux weights, bit for bit. The band steps
// move only the gates next to the POs, so their drivers keep their
// (scrambled) desired delays while their loads and successor VDDs
// change: the cases the decision key's load and VDD entries exist for.
func TestMatcherCacheMatchesFresh(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			s := newEvalSetup(t, name)
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
			m := newMatcher(s.cc, lib(), s.cfg)
			for _, st := range steps {
				if err := m.match(st.desired); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				cells, err := MatchDelaysCompiled(s.cc, lib(), st.desired, s.cfg)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				src, err := strike.EnumerateSources(s.cc, lib(), cells, s.cfg.POLoad)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if msg := diffCells(st.name+" cells", m.cells, cells); msg != "" {
					t.Fatal(msg)
				}
				if msg := diffCells(st.name+" table cells", m.t.assignment(m.ids), cells); msg != "" {
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
// EvaluateMetricsCompiled and to the library-only reference on random
// assignments, exactly.
func TestMetricsCoreMatchesEvaluateMetrics(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			s := newEvalSetup(t, name)
			sens, err := logicsim.Sensitization(s.cc, 2000, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(11)
			m := newMatcher(s.cc, lib(), s.cfg)
			for trial := 0; trial < 6; trial++ {
				if err := m.match(s.scrambled(rng, s.d0, -1)); err != nil {
					t.Fatal(err)
				}
				for _, act := range []*logicsim.Result{sens, nil} {
					got := metricsOf(s.cc, act, m.src.Loads, m.src.Delays, func(id int) *cellProps { return &m.t.props[m.ids[id]] })
					want, err := EvaluateMetricsCompiled(s.cc, lib(), m.cells, act, s.cfg.POLoad)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := referenceMetrics(s.cc, lib(), m.cells, act, s.cfg.POLoad)
					if err != nil {
						t.Fatal(err)
					}
					for _, w := range []Metrics{want, ref} {
						if msg := diffFloats(fmt.Sprintf("trial %d metrics", trial), []float64{got.Delay, got.Energy, got.Area}, []float64{w.Delay, w.Energy, w.Area}); msg != "" {
							t.Fatal(msg)
						}
					}
				}
			}
		})
	}
}

// TestErrorsMatchReference pins the errors of the matcher, the
// metrics and the optimizer to the reference's. No feasible cell: with
// the menus emptied by MaxSize, the hints are the only candidates, and
// a PO hinted at a higher VDD than its driver's hint leaves the driver
// without one; without hints the first gate matched already has none.
// A library error: a grid whose load axis is not increasing fails
// every characterization.
func TestErrorsMatchReference(t *testing.T) {
	c := gen.C17()
	cc, err := engine.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	base, err := InitialSizing(c, lib(), 0, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	hints := append(aserta.Assignment(nil), base...)
	for _, id := range c.Outputs() {
		hints[id].VDD = 1.2
	}
	d0, err := gateDelays(c, lib(), base, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want error) {
		t.Helper()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: error %v, want %v", what, got, want)
		}
	}
	for _, h := range []aserta.Assignment{hints, nil} {
		cfg := MatchConfig{VDDs: []float64{1.0}, Vths: []float64{0.2}, MaxSize: 0.5, POLoad: 2e-15, Hints: h}
		_, got := MatchDelaysCompiled(cc, lib(), d0, cfg)
		_, want := referenceMatch(cc, lib(), d0, cfg)
		same(fmt.Sprintf("no feasible cell, hints %v", h != nil), got, want)
	}

	broken := charlib.NewLibrary(devmodel.Tech70nm(), charlib.Grid{
		Sizes: []float64{1, 4}, Lengths: []float64{70e-9}, VDDs: []float64{1.0}, Vths: []float64{0.2},
		Loads: []float64{2e-15, 1e-15},
	})
	_, got := MatchDelaysCompiled(cc, broken, d0, MatchConfig{POLoad: 2e-15, Hints: base})
	_, want := referenceMatch(cc, broken, d0, MatchConfig{POLoad: 2e-15, Hints: base})
	same("MatchDelaysCompiled, broken library", got, want)
	_, got = EvaluateMetricsCompiled(cc, broken, base, nil, 2e-15)
	_, want = referenceMetrics(cc, broken, base, nil, 2e-15)
	same("EvaluateMetricsCompiled, broken library", got, want)
	opts := Options{Vectors: 500, Iterations: 1, MaxBasis: 2}
	_, got = OptimizeCompiled(cc, broken, opts)
	_, want = referenceOptimize(cc, broken, opts)
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
