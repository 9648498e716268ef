package strike_test

import (
	"math"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/lut"
	"repro/internal/strike"
)

// ladder replicates the analysis sample-width ladder: geometric from
// 5 ps to the wide width.
func ladder(k int, wide float64) []float64 {
	ws := make([]float64, k)
	lo := 5e-12
	ratio := math.Pow(wide/lo, 1/float64(k-1))
	w := lo
	for i := 0; i < k; i++ {
		ws[i] = w
		w *= ratio
	}
	ws[k-1] = wide
	return ws
}

// serialReference is an independent, straight-from-the-paper §3.2
// implementation: one serial reverse-topological pass, plain
// lut.Interp1D lookups, no shared pipeline code. It is the oracle the
// parallel Propagator must match bit for bit.
func serialReference(cc *engine.CompiledCircuit, sens *logicsim.Result, genWidth, samples, delays []float64) (ws, wij []float64) {
	c := cc.Circuit()
	nGates := len(c.Gates)
	nPOs := len(c.Outputs())
	K := len(samples)
	ws = make([]float64, nGates*nPOs*K)
	wij = make([]float64, nGates*nPOs)
	for _, i := range cc.ReverseTopoOrder() {
		g := c.Gates[i]
		if g.Type.IsSource() {
			continue
		}
		// Side sensitizations and Eq. 2 denominators, recomputed from
		// scratch per gate.
		sis := make([]float64, len(g.Fanout))
		for si, s := range g.Fanout {
			sis[si] = logicsim.SideSensitization(c, sens, i, s)
		}
		ownCol := -1
		if g.PO {
			j, _ := cc.POColumn(i)
			ownCol = j
			copy(ws[(i*nPOs+j)*K:(i*nPOs+j+1)*K], samples)
			wij[i*nPOs+j] = genWidth[i]
			if len(g.Fanout) == 0 {
				continue
			}
		}
		for j := 0; j < nPOs; j++ {
			if j == ownCol {
				continue
			}
			pij := sens.Pij[i][j]
			den := 0.0
			for si, s := range g.Fanout {
				den += sis[si] * sens.Pij[s][j]
			}
			if pij == 0 || den == 0 {
				continue
			}
			row := ws[(i*nPOs+j)*K : (i*nPOs+j+1)*K]
			for k := 0; k < K; k++ {
				acc := 0.0
				for si, s := range g.Fanout {
					wo := strike.Attenuate(samples[k], delays[s])
					if wo <= 0 {
						continue
					}
					sj := ws[(s*nPOs+j)*K : (s*nPOs+j+1)*K]
					acc += sis[si] * lut.Interp1D(samples, sj, wo)
				}
				row[k] = pij * acc / den
			}
			wij[i*nPOs+j] = lut.Interp1D(samples, row, genWidth[i])
		}
	}
	return ws, wij
}

// TestPipelineMatchesSerialReference is the refactor's acceptance
// gate: the parallel pipeline (EnumerateSources → ElectricalFilter →
// Reduce) must be bit-identical to the independent serial reference on
// a real benchmark — every WS entry, every W_ij, every per-gate U
// contribution and the total.
func TestPipelineMatchesSerialReference(t *testing.T) {
	p := newPipeline(t, charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid()), "c432")
	c, cc, src, sens, samples := p.c, p.cc, p.src, p.sens, p.samples
	nGates := len(c.Gates)
	nPOs := len(c.Outputs())
	K := len(samples)
	ws := make([]float64, nGates*nPOs*K)
	wijFlat := make([]float64, nGates*nPOs)
	p.prop.Run(src.Delays, ws, wijFlat)

	refWS, refWij := serialReference(cc, sens, src.GenWidth, samples, src.Delays)
	for i := range refWS {
		if ws[i] != refWS[i] {
			t.Fatalf("WS[%d] = %v, serial reference %v", i, ws[i], refWS[i])
		}
	}
	for i := range refWij {
		if wijFlat[i] != refWij[i] {
			t.Fatalf("Wij[%d] = %v, serial reference %v", i, wijFlat[i], refWij[i])
		}
	}

	// Reduce: per-gate contributions against a serial netlist-order
	// accumulation of the same clamp.
	wij := make([][]float64, nGates)
	for i := range wij {
		wij[i] = wijFlat[i*nPOs : (i+1)*nPOs]
	}
	const clock = 300e-12
	ui, total := strike.Reduce(c, src.Flux, wij, clock)
	refTotal := 0.0
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		sum := 0.0
		for _, w := range wij[g.ID] {
			if w > clock {
				w = clock
			}
			sum += w
		}
		u := src.Flux[g.ID] * sum / 1e-12
		if ui[g.ID] != u {
			t.Fatalf("gate %s: Ui = %v, serial reference %v", g.Name, ui[g.ID], u)
		}
		refTotal += u
	}
	if total != refTotal {
		t.Fatalf("U = %v, serial reference %v", total, refTotal)
	}
	if total <= 0 {
		t.Fatal("degenerate reference: U must be positive")
	}
}

// pipeline is the electrical stage of one ISCAS-85 circuit at the
// reference tests' settings: size-2 nominal cells, a 2 fF PO load,
// 2,000 sensitization vectors and the 10-width ladder.
type pipeline struct {
	c       *ckt.Circuit
	cc      *engine.CompiledCircuit
	src     *strike.Sources
	sens    *logicsim.Result
	samples []float64
	prop    *strike.Propagator
}

func newPipeline(t *testing.T, lib *charlib.Library, name string) *pipeline {
	t.Helper()
	c, err := gen.ISCAS85(name)
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	tab := charlib.NewTable(lib)
	ids, err := tab.InternAll(c, aserta.NominalAssignment(c, lib, 2))
	if err != nil {
		t.Fatal(err)
	}
	src, err := strike.EnumerateSources(cc, tab, ids, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := logicsim.Sensitization(cc, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := ladder(10, 2.56e-9)
	return &pipeline{c, cc, src, sens, samples, strike.NewPropagator(cc, sens, src.GenWidth, samples)}
}

// TestScratchPassMatchesSerialReference holds the pass that keeps no
// WS table, Run(delays, nil, wij), to the serial reference's W_ij: on
// c432, whose 9 POs leave chunks narrower than the four-column cap,
// and on c2670, whose 140 POs fill every chunk to it. Each runs
// twice on one Propagator and once more after a c5315 pass, so the
// recycled column scratch comes back dirty, and wij starts as NaN
// every time: the pass must zero what it does not write.
func TestScratchPassMatchesSerialReference(t *testing.T) {
	// One library for all three circuits: their common cells are
	// characterized once.
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	big := newPipeline(t, lib, "c5315")
	for _, name := range []string{"c432", "c2670"} {
		p := newPipeline(t, lib, name)
		_, refWij := serialReference(p.cc, p.sens, p.src.GenWidth, p.samples, p.src.Delays)
		wij := make([]float64, len(refWij))
		for _, when := range []string{"first run", "second run", "after a c5315 run"} {
			if when == "after a c5315 run" {
				big.prop.Run(big.src.Delays, nil, make([]float64, len(big.c.Gates)*len(big.c.Outputs())))
			}
			for i := range wij {
				wij[i] = math.NaN()
			}
			p.prop.Run(p.src.Delays, nil, wij)
			for i := range refWij {
				if wij[i] != refWij[i] {
					t.Fatalf("%s, %s: Wij[%d] = %v, serial reference %v", name, when, i, wij[i], refWij[i])
				}
			}
		}
	}
}

// TestRankDeterministicAndNormalized checks the susceptibility
// product: ranked descending, ties in input order, shares summing to 1
// with a monotone cumulative column.
func TestRankDeterministicAndNormalized(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	u := []float64{2, 5, 2, 0, 1}
	ranked := strike.Rank(names, u, 10)
	wantOrder := []string{"b", "a", "c", "e", "d"}
	for i, w := range wantOrder {
		if ranked[i].Name != w {
			t.Fatalf("rank %d = %s, want %s (ties must keep input order)", i, ranked[i].Name, w)
		}
	}
	sum := 0.0
	prev := math.Inf(1)
	for i, e := range ranked {
		if e.U > prev {
			t.Fatalf("rank %d not descending", i)
		}
		prev = e.U
		sum += e.Share
		if math.Abs(e.CumShare-sum) > 1e-15 {
			t.Fatalf("rank %d cum share %v, want %v", i, e.CumShare, sum)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	// Zero total: shares are defined as 0.
	for _, e := range strike.Rank(names, []float64{0, 0, 0, 0, 0}, 0) {
		if e.Share != 0 || e.CumShare != 0 {
			t.Fatalf("zero-total share = %+v, want 0", e)
		}
	}
}

// TestGroupShare covers the hardening flows' one-line verdict helper.
func TestGroupShare(t *testing.T) {
	ui := []float64{1, 2, 3, 4}
	if got := strike.GroupShare(ui, []int{2, 3}); got != 0.7 {
		t.Fatalf("GroupShare = %v, want 0.7", got)
	}
	if got := strike.GroupShare([]float64{0, 0}, []int{0}); got != 0 {
		t.Fatalf("zero-total GroupShare = %v, want 0", got)
	}
}
