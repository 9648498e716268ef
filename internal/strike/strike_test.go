package strike_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/lut"
	"repro/internal/stats"
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
// a real benchmark — every WS entry (the compact table expanded to the
// dense layout), every W_ij, every per-gate U contribution and the
// total.
func TestPipelineMatchesSerialReference(t *testing.T) {
	p := newPipeline(t, coarseLib(), iscas(t, "c432"), 2000)
	c, cc, src, sens, samples := p.c, p.cc, p.src, p.sens, p.samples
	nGates := len(c.Gates)
	nPOs := len(c.Outputs())
	K := len(samples)
	compact := make([]float64, p.prop.Pairs()*K)
	wijFlat := make([]float64, nGates*nPOs)
	p.prop.Run(src.Delays, compact, wijFlat)
	ws := p.prop.DenseWS(compact)

	refWS, refWij := serialReference(cc, sens, src.GenWidth, samples, src.Delays)
	if len(ws) != len(refWS) {
		t.Fatalf("expanded WS table has %d entries, serial reference %d", len(ws), len(refWS))
	}
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

// coarseLib is the coarse library the reference tests and
// FuzzElectricalPass share, so each cell is characterized once per
// process.
var coarseLib = sync.OnceValue(func() *charlib.Library {
	return charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
})

// pipeline is the electrical stage of one circuit at the reference
// tests' settings: size-2 nominal cells, a 2 fF PO load and the
// 10-width ladder.
type pipeline struct {
	c       *ckt.Circuit
	cc      *engine.CompiledCircuit
	src     *strike.Sources
	sens    *logicsim.Result
	samples []float64
	prop    *strike.Propagator
}

func iscas(t testing.TB, name string) *ckt.Circuit {
	t.Helper()
	c, err := gen.ISCAS85(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newPipeline(t testing.TB, lib *charlib.Library, c *ckt.Circuit, vectors int) *pipeline {
	t.Helper()
	cc := engine.MustCompile(c)
	cells, err := charlib.NominalAssignment(c, lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := strike.EnumerateSources(cc, cells, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := logicsim.Sensitization(cc, vectors, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := ladder(10, 2.56e-9)
	return &pipeline{c, cc, src, sens, samples, strike.NewPropagator(cc, sens, src.GenWidth, samples)}
}

// baseline runs the pass and Reduce on the pipeline's own sources and
// returns the delta armed on them.
func (p *pipeline) baseline(clock float64) *strike.Delta {
	nPOs := len(p.c.Outputs())
	wij := make([]float64, len(p.c.Gates)*nPOs)
	p.prop.Run(p.src.Delays, nil, wij)
	rows := make([][]float64, len(p.c.Gates))
	for i := range rows {
		rows[i] = wij[i*nPOs : (i+1)*nPOs]
	}
	ui, _ := strike.Reduce(p.c, p.src.Flux, rows, clock)
	return p.prop.NewDelta(p.src, wij, ui, clock)
}

// referenceU is U on the serial reference's rows for the given sources:
// every gate's GateU, summed in netlist order.
func referenceU(p *pipeline, delays, genWidth, flux []float64, clock float64) float64 {
	_, ref := serialReference(p.cc, p.sens, genWidth, p.samples, delays)
	nPOs := len(p.c.Outputs())
	u := 0.0
	for _, g := range p.c.Gates {
		if !g.Type.IsSource() {
			u += strike.GateU(flux[g.ID], ref[g.ID*nPOs:(g.ID+1)*nPOs], clock)
		}
	}
	return u
}

// seedPairs sets wij to NaN at every pair's entry and to zero
// elsewhere: a W_ij table Run accepts, in which an entry the pass fails
// to write shows.
func seedPairs(wij []float64, p *strike.Propagator) {
	clear(wij)
	for _, e := range strike.PairEntries(p) {
		wij[e] = math.NaN()
	}
}

// poDrivesLogic is a hand-built netlist whose POs also drive logic, the
// shape of a sequential frame's D-pin tap: po1 feeds a NOR and a
// terminal XOR PO, po2 feeds a terminal OR PO.
func poDrivesLogic(t testing.TB) *ckt.Circuit {
	t.Helper()
	c := ckt.New("po-drives-logic")
	a := c.MustAddGate("a", ckt.Input)
	b := c.MustAddGate("b", ckt.Input)
	d := c.MustAddGate("d", ckt.Input)
	gate := func(name string, typ ckt.GateType, po bool, fanin ...int) int {
		id := c.MustAddGate(name, typ)
		for _, f := range fanin {
			c.MustConnect(f, id)
		}
		if po {
			c.MarkPO(id)
		}
		return id
	}
	x := gate("x", ckt.Nand, false, a, b)
	po1 := gate("po1", ckt.Nand, true, x, d)
	y := gate("y", ckt.Nor, false, po1, b)
	po2 := gate("po2", ckt.And, true, y, x)
	gate("z", ckt.Or, true, po2, a)
	gate("w", ckt.Xor, true, po1, d)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScratchPassMatchesSerialReference holds the pass that keeps no
// WS table, Run(delays, nil, wij), to the serial reference's W_ij on
// every ISCAS-85 profile at 2,000 and 10,000 vectors — P_ij densities
// from 0.1 % (c6288) to 80 % (c1355) — and on a netlist whose POs drive
// logic. Each runs twice on one Propagator and once more after a c5315
// pass, so the recycled arena comes back dirty, and wij starts as NaN
// at every pair's entry and zero elsewhere, as Run requires: the pass
// must write every pair's entry.
func TestScratchPassMatchesSerialReference(t *testing.T) {
	lib := coarseLib()
	big := newPipeline(t, lib, iscas(t, "c5315"), 2000)
	for _, vectors := range []int{2000, 10000} {
		circuits := []*ckt.Circuit{poDrivesLogic(t)}
		for _, name := range gen.Names() {
			circuits = append(circuits, iscas(t, name))
		}
		for _, c := range circuits {
			p := newPipeline(t, lib, c, vectors)
			_, refWij := serialReference(p.cc, p.sens, p.src.GenWidth, p.samples, p.src.Delays)
			wij := make([]float64, len(refWij))
			for _, when := range []string{"first run", "second run", "after a c5315 run"} {
				if when == "after a c5315 run" {
					big.prop.Run(big.src.Delays, nil, make([]float64, len(big.c.Gates)*len(big.c.Outputs())))
				}
				seedPairs(wij, p.prop)
				p.prop.Run(p.src.Delays, nil, wij)
				for i := range refWij {
					if wij[i] != refWij[i] {
						t.Fatalf("%s at %d vectors, %s: Wij[%d] = %v, serial reference %v", c.Name, vectors, when, i, wij[i], refWij[i])
					}
				}
			}
		}
	}
}

// TestDeltaMatchesSerialReference gives the incremental delta an
// independent exact oracle. After one-gate, several-gate and
// every-gate delay changes (the last falls back to the full pass),
// Recompute must equal, bit for bit, the netlist-order sum of every gate's GateU
// on the serial reference's rows at the new delays. The calls run back
// to back on one Delta, so each also restores the attenuation rows the
// previous one changed.
func TestDeltaMatchesSerialReference(t *testing.T) {
	const clock = 300e-12
	lib := coarseLib()
	for _, name := range []string{"c432", "c880", "c1908", "c7552"} {
		p := newPipeline(t, lib, iscas(t, name), 2000)
		delta := p.baseline(clock)
		var logic []int
		for _, g := range p.c.Gates {
			if !g.Type.IsSource() {
				logic = append(logic, g.ID)
			}
		}
		rng := stats.NewRNG(uint64(len(logic)))
		check := func(label string, delays []float64) {
			t.Helper()
			got, err := delta.Recompute(delays, p.src.GenWidth, p.src.Flux)
			if err != nil {
				t.Fatal(err)
			}
			if w := referenceU(p, delays, p.src.GenWidth, p.src.Flux, clock); got != w {
				t.Fatalf("%s, %s: Recompute = %.17g, serial reference %.17g", name, label, got, w)
			}
		}
		for trial := 0; trial < 4; trial++ {
			d := slices.Clone(p.src.Delays)
			d[logic[rng.Intn(len(logic))]] *= 1 + 0.5*rng.Float64()
			check("one gate", d)
		}
		for trial := 0; trial < 3; trial++ {
			d := slices.Clone(p.src.Delays)
			for n := 0; n < 2+trial*3; n++ {
				d[logic[rng.Intn(len(logic))]] *= 0.5 + 1.5*rng.Float64()
			}
			check("several gates", d)
		}
		d := slices.Clone(p.src.Delays)
		for i := range d {
			d[i] *= 1.5
		}
		check("every gate", d)
		check("baseline", p.src.Delays)
	}
}

// FuzzElectricalPass holds Run to the serial reference on generated
// combinational netlists of fuzzed shape at 64–1,024 vectors, with
// every delay scaled by a fuzzed power of two from 1/16 to 128 so that
// the ladder's samples fall in all three Eq. 1 regimes (masked,
// attenuated, passed). Run goes twice through one recycled arena with
// wij seeded NaN at every pair's entry and zero elsewhere, as Run
// requires, then once more into a NaN-seeded compact WS table: W_ij and
// every WS entry must match bit for bit, so every pair's entry and row
// must be written.
func FuzzElectricalPass(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(40), uint8(6), uint8(2), uint16(500), uint8(4))
	f.Add(uint64(7), uint8(20), uint8(9), uint8(150), uint8(14), uint8(3), uint16(64), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(1), uint8(90), uint8(30), uint8(1), uint16(1024), uint8(11))
	f.Fuzz(func(t *testing.T, seed uint64, pis, pos, gates, depth, fanin uint8, nVec uint16, scale uint8) {
		prof := gen.Profile{
			Name:     "fuzz",
			PIs:      2 + int(pis%30),
			POs:      1 + int(pos%12),
			Gates:    4 + int(gates%200),
			Depth:    3 + int(depth%30),
			MaxFanin: 2 + int(fanin%4),
			Seed:     seed,
		}
		c, err := gen.Generate(prof)
		if err != nil {
			t.Skip() // unsatisfiable profile, not a pass bug
		}
		vectors := 64 + int(nVec)%961
		p := newPipeline(t, coarseLib(), c, vectors)
		factor := math.Exp2(float64(int(scale%12) - 4))
		delays := make([]float64, len(p.src.Delays))
		for i, d := range p.src.Delays {
			delays[i] = d * factor
		}
		refWS, refWij := serialReference(p.cc, p.sens, p.src.GenWidth, p.samples, delays)
		label := fmt.Sprintf("%+v at %d vectors, delays x%v", prof, vectors, factor)
		wij := make([]float64, len(refWij))
		for run := 0; run < 2; run++ {
			seedPairs(wij, p.prop)
			p.prop.Run(delays, nil, wij)
			for i := range refWij {
				if wij[i] != refWij[i] {
					t.Fatalf("%s, run %d: Wij[%d] = %v, serial reference %v", label, run, i, wij[i], refWij[i])
				}
			}
		}
		compact := make([]float64, p.prop.Pairs()*len(p.samples))
		for i := range compact {
			compact[i] = math.NaN()
		}
		p.prop.Run(delays, compact, wij)
		ws := p.prop.DenseWS(compact)
		for i := range refWS {
			if ws[i] != refWS[i] {
				t.Fatalf("%s: WS[%d] = %v, serial reference %v", label, i, ws[i], refWS[i])
			}
		}
	})
}

// FuzzDeltaSources holds the delta to the serial reference under
// source changes, on generated combinational netlists of fuzzed shape
// at 64–1,024 vectors. Six back-to-back Recompute calls on one Delta
// each change one gate, a few gates or more than half of them, in
// their delays, generated widths or flux weights, in a fuzzed mix of
// the three; where delays and widths both change, so does the width of
// a fanin of each gate whose delay changed. Every U must equal, bit for bit, the netlist-order sum of
// every gate's GateU on the serial reference's rows at the changed
// sources.
func FuzzDeltaSources(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(40), uint8(6), uint8(2), uint16(500), uint32(0x2a5f17))
	f.Add(uint64(7), uint8(20), uint8(9), uint8(150), uint8(14), uint8(3), uint16(64), uint32(0x7777))
	f.Add(uint64(42), uint8(3), uint8(1), uint8(90), uint8(30), uint8(1), uint16(1024), uint32(0x123456))
	f.Fuzz(func(t *testing.T, seed uint64, pis, pos, gates, depth, fanin uint8, nVec uint16, plan uint32) {
		prof := gen.Profile{
			Name:     "fuzz",
			PIs:      2 + int(pis%30),
			POs:      1 + int(pos%12),
			Gates:    4 + int(gates%200),
			Depth:    3 + int(depth%30),
			MaxFanin: 2 + int(fanin%4),
			Seed:     seed,
		}
		c, err := gen.Generate(prof)
		if err != nil {
			t.Skip() // unsatisfiable profile, not a delta bug
		}
		vectors := 64 + int(nVec)%961
		p := newPipeline(t, coarseLib(), c, vectors)
		const clock = 300e-12
		delta := p.baseline(clock)
		var logic []int
		for _, g := range c.Gates {
			if !g.Type.IsSource() {
				logic = append(logic, g.ID)
			}
		}
		rng := stats.NewRNG(seed ^ uint64(plan))
		for call := 0; call < 6; call++ {
			// Three bits of the plan per call: which of delay, width and
			// flux move (none means all three); the rng picks how many
			// gates and which.
			kind := plan >> (3 * call) & 7
			if kind == 0 {
				kind = 7
			}
			n := 1
			switch rng.Intn(3) {
			case 1:
				n = 2 + rng.Intn(4)
			case 2:
				n = len(logic)/2 + 1 + rng.Intn(len(logic)/2+1)
			}
			delays, widths, flux := slices.Clone(p.src.Delays), slices.Clone(p.src.GenWidth), slices.Clone(p.src.Flux)
			for _, pick := range rng.Perm(len(logic))[:min(n, len(logic))] {
				i := logic[pick]
				if kind&1 != 0 {
					delays[i] *= math.Exp2(4*rng.Float64() - 2)
				}
				if kind&2 != 0 {
					widths[i] *= math.Exp2(6*rng.Float64() - 3)
					// A fanin of a gate whose delay changed is in its
					// cone: its rows and its width change together.
					if f := c.Gates[i].Fanin[0]; kind&1 != 0 && !c.Gates[f].Type.IsSource() {
						widths[f] *= math.Exp2(6*rng.Float64() - 3)
					}
				}
				if kind&4 != 0 {
					flux[i] *= 0.5 + 1.5*rng.Float64()
				}
			}
			got, err := delta.Recompute(delays, widths, flux)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceU(p, delays, widths, flux, clock); got != want {
				t.Fatalf("%+v at %d vectors, call %d (kind %03b, %d gates): Recompute = %.17g, serial reference %.17g",
					prof, vectors, call, kind, n, got, want)
			}
		}
	})
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
