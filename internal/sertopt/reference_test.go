package sertopt

// The reference optimizer: OptimizeCompiled's evaluation path before
// the per-run cell table, kept verbatim as the oracle the production
// optimizer must match bit for bit. Every cost evaluation matches
// cells afresh (referenceMatch), analyzes them in full
// (aserta.AnalyzeCompiled) and recomputes the metrics from the library
// (referenceMetrics): no cell table, decision cache or assignment memo.
// Its baseline comes from the per-edge sizing (refInitialSizing), and
// every load it sums reads the library's Props edge by edge
// (refGateLoads), as every flow did before charlib.Table.
// It derives the baseline's loads and delays afresh for each use,
// searches in T's column order (refColumnDelays, refPerGate,
// refGradientSeed), and spells out the match settings the production
// matcher derives from the baseline (refMatchConfig). The SQP and
// annealing loops are its own copies.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/matrix"
	"repro/internal/stats"
	"repro/internal/strike"
)

// refMatchConfig is the matcher's old configuration: the voltage
// menus, the size cap, the PO load and the per-gate hint cells.
type refMatchConfig struct {
	VDDs    []float64
	Vths    []float64
	MaxSize float64
	POLoad  float64
	Hints   []charlib.Cell
}

// referenceOptimize is OptimizeCompiled with the reference evaluation
// path.
func referenceOptimize(cc *engine.CompiledCircuit, lib *charlib.Library, opts Options) (*Result, error) {
	c := cc.Circuit()
	if c.Sequential() {
		return nil, fmt.Errorf("sertopt: circuit %q has flip-flops; SERTOPT optimizes combinational logic only", c.Name)
	}
	opts = opts.withDefaults()
	match := refMatchConfig{VDDs: opts.Match.VDDs, Vths: opts.Match.Vths, POLoad: engine.DefaultPOLoad}
	res := &Result{}

	// Baseline: speed-oriented sizing at nominal L/VDD/Vth.
	baseline, err := refInitialSizing(c, lib, match.POLoad)
	if err != nil {
		return nil, err
	}
	if res.Baseline, err = charlib.NewTable(lib).InternAll(c, baseline); err != nil {
		return nil, err
	}
	if match.MaxSize == 0 {
		// Paper: "The maximum gate size used was the same as that for
		// the baseline circuits."
		maxSize := 1.0
		for _, g := range c.Gates {
			if g.Type != ckt.Input && baseline[g.ID].Size > maxSize {
				maxSize = baseline[g.ID].Size
			}
		}
		match.MaxSize = maxSize
	}

	// One-time logic analysis, shared by every cost evaluation: the
	// handle's memo replaces the old private PrecomputedSens plumbing —
	// the embedded ASERTA analyses below resolve the same (vectors,
	// seed) entry. The optimizer is the incremental configuration of
	// the shared strike pipeline: gradient seeding re-enters it through
	// RecomputeU (strike.Delta), re-reducing only affected fanin cones.
	sens, err := logicsim.Sensitization(cc, opts.Vectors, opts.Seed)
	if err != nil {
		return nil, err
	}
	acfg := aserta.Config{
		Vectors: opts.Vectors,
		Seed:    opts.Seed,
		POLoad:  match.POLoad,
	}

	res.BaseMetrics, err = referenceMetrics(cc, lib, baseline, sens, match.POLoad)
	if err != nil {
		return nil, err
	}
	// Latch-capture saturation at the circuit's own clock (1.2x the
	// baseline critical path), for both baseline and candidates.
	acfg.ClockPeriod = ClockPeriodFactor * res.BaseMetrics.Delay
	res.BaseAnalysis, err = aserta.AnalyzeCompiled(cc, res.Baseline, acfg)
	if err != nil {
		return nil, err
	}
	if res.BaseAnalysis.U == 0 {
		return nil, fmt.Errorf("sertopt: baseline unreliability is zero; nothing to optimize")
	}

	// Topology matrix and nullspace basis.
	topo, err := BuildTopology(c, 0)
	if err != nil {
		return nil, err
	}
	// The full reduction of the dense T, truncated afterwards: the
	// production Nullspace stops early, and this holds it to the old
	// basis.
	basis := topo.T().Nullspace()
	if opts.MaxBasis > 0 && len(basis) > opts.MaxBasis {
		basis = basis[:opts.MaxBasis]
	}
	// Rescale each direction to max-component 1 so a step of StepInit
	// moves its most-affected gate by a full StepInit — unit L2 norm
	// spread over hundreds of gates would stay below the cell menu's
	// delay quantization and the search would see a flat landscape.
	for _, z := range basis {
		m := 0.0
		for _, v := range z {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		if m > 0 {
			for i := range z {
				z[i] /= m
			}
		}
	}

	d0, err := gateDelays(c, lib, baseline, match.POLoad)
	if err != nil {
		return nil, err
	}
	d0cols := refColumnDelays(topo, d0)
	// Anchor matching so θ=0 reproduces the baseline exactly.
	if match.Hints == nil {
		match.Hints = baseline
	}

	w := opts.Weights
	cost := func(m Metrics, u float64) float64 {
		return w.U*u/res.BaseAnalysis.U +
			w.T*m.Delay/res.BaseMetrics.Delay +
			w.E*m.Energy/res.BaseMetrics.Energy +
			w.A*m.Area/res.BaseMetrics.Area
	}

	// evalTheta matches cells for d = d0 + Z·θ and scores them.
	evalTheta := func(theta []float64) (*refEvalOut, error) {
		res.Evaluations++
		d := append([]float64(nil), d0cols...)
		for bi, z := range basis {
			if theta[bi] == 0 {
				continue
			}
			matrix.AddScaled(d, theta[bi], z)
		}
		const minDelay = 0.5e-12
		perGate := refPerGate(topo, d, len(c.Gates))
		for i := range perGate {
			if perGate[i] < minDelay {
				perGate[i] = minDelay
			}
		}
		cells, err := referenceMatch(cc, lib, perGate, match)
		if err != nil {
			return nil, err
		}
		asg, err := charlib.NewTable(lib).InternAll(c, cells)
		if err != nil {
			return nil, err
		}
		an, err := aserta.AnalyzeCompiled(cc, asg, acfg)
		if err != nil {
			return nil, err
		}
		m, err := referenceMetrics(cc, lib, cells, sens, match.POLoad)
		if err != nil {
			return nil, err
		}
		return &refEvalOut{an: an, m: m, c: cost(m, an.U)}, nil
	}

	theta := make([]float64, len(basis))
	best, err := evalTheta(theta)
	if err != nil {
		return nil, err
	}
	res.History = append(res.History, best.c)

	// Gradient seeding: the coordinate basis explores arbitrary
	// nullspace directions, but the physically right move is known —
	// speed up the gates whose delay increase raises U (PO gates
	// generating wide glitches) and slow the ones whose delay increase
	// lowers U (attenuators in front of the latches). Estimate dU/dd
	// per gate with the cheap electrical-only re-pass, project the
	// descent direction onto the nullspace, and line-search it before
	// the main loop.
	if len(basis) > 0 {
		seed, err := refGradientSeed(cc, topo, basis, res.BaseAnalysis, d0, opts)
		if err != nil {
			return nil, err
		}
		if seed != nil {
			for _, alpha := range []float64{0.5, 1, 2, 4, 8, 16} {
				cand := make([]float64, len(basis))
				matrix.AddScaled(cand, alpha, seed)
				out, err := evalTheta(cand)
				if err != nil {
					return nil, err
				}
				if out.c < best.c {
					best = out
					theta = cand
					res.History = append(res.History, out.c)
				}
			}
		}
	}

	var bestTheta = append([]float64(nil), theta...)
	rng := stats.NewRNG(opts.Seed + 0x5e27097)
	switch opts.Method {
	case "sqp":
		best, bestTheta, err = referenceSQP(bestTheta, best, evalTheta, opts, &res.History)
	case "anneal":
		best, bestTheta, err = referenceAnneal(bestTheta, best, evalTheta, opts, rng, &res.History)
	default:
		return nil, fmt.Errorf("sertopt: unknown method %q", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	_ = bestTheta
	res.Optimized = best.an.Cells
	res.OptAnalysis = best.an
	res.OptMetrics = best.m
	res.Cost = best.c
	return res, nil
}

// refColumnDelays converts a per-gate-ID slice into the column order
// of T.
func refColumnDelays(tp *Topology, perGate []float64) []float64 {
	out := make([]float64, len(tp.GateOf))
	for col, id := range tp.GateOf {
		out[col] = perGate[id]
	}
	return out
}

// refPerGate converts a per-column vector back to gate-ID indexing
// (entries for PIs are zero).
func refPerGate(tp *Topology, cols []float64, nGates int) []float64 {
	out := make([]float64, nGates)
	for col, id := range tp.GateOf {
		out[id] = cols[col]
	}
	return out
}

// refGradientSeed is gradientSeed in T's column order: basis, the
// gradient and the least-squares rows are indexed by column.
func refGradientSeed(cc *engine.CompiledCircuit, topo *Topology, basis [][]float64, base *aserta.Analysis, d0 []float64, opts Options) ([]float64, error) {
	const sensDepth = 8
	const h = 2e-12
	depth := cc.DepthFromPO()
	u0 := base.U
	grad := make([]float64, len(topo.GateOf))
	any := false
	for col, id := range topo.GateOf {
		if depth[id] < 0 || depth[id] > sensDepth {
			continue
		}
		d := append([]float64(nil), d0...)
		d[id] += h
		u, err := base.RecomputeU(d)
		if err != nil {
			return nil, err
		}
		grad[col] = (u - u0) / h
		if grad[col] != 0 {
			any = true
		}
	}
	if !any {
		return nil, nil
	}
	// Project v = −grad onto span(basis): θ = argmin ‖Z·θ − v‖.
	z := matrix.NewDense(len(grad), len(basis))
	for bi, bv := range basis {
		for r := range grad {
			z.Set(r, bi, bv[r])
		}
	}
	v := make([]float64, len(grad))
	for i, g := range grad {
		v[i] = -g
	}
	theta, err := matrix.LeastSquares(z, v, 1e-12)
	if err != nil {
		return nil, err
	}
	// Scale so the largest per-gate delay move is StepInit.
	move, err := z.MulVec(theta)
	if err != nil {
		return nil, err
	}
	m := 0.0
	for _, x := range move {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	if m == 0 {
		return nil, nil
	}
	f := opts.StepInit / m
	for i := range theta {
		theta[i] *= f
	}
	return theta, nil
}

// referenceMatch is the table-free §4 matcher.
func referenceMatch(cc *engine.CompiledCircuit, lib *charlib.Library, desired []float64, cfg refMatchConfig) ([]charlib.Cell, error) {
	c := cc.Circuit()
	if len(desired) != len(c.Gates) {
		return nil, fmt.Errorf("sertopt: %d desired delays for %d gates", len(desired), len(c.Gates))
	}
	if len(cfg.VDDs) == 0 {
		cfg.VDDs = []float64{lib.Tech.VDDnom}
	}
	if len(cfg.Vths) == 0 {
		cfg.Vths = []float64{lib.Tech.Vthnom}
	}
	order := cc.ReverseTopoOrder()
	cells := make([]charlib.Cell, len(c.Gates))
	assigned := make([]bool, len(c.Gates))
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		// Load: every fanout gate is later in topological order, hence
		// already assigned in this reverse walk.
		load := 0.0
		minSuccVDD := 0.0
		for _, s := range g.Fanout {
			if !assigned[s] {
				return nil, fmt.Errorf("sertopt: fanout %s of %s not yet assigned (netlist not a DAG?)", c.Gates[s].Name, g.Name)
			}
			p, err := lib.Props(cells[s])
			if err != nil {
				return nil, err
			}
			load += p.InputCap
			if cells[s].VDD > minSuccVDD {
				minSuccVDD = cells[s].VDD
			}
		}
		if g.PO {
			load += cfg.POLoad
		}
		menu := lib.Menu(charlib.Class{Type: g.Type, Fanin: len(g.Fanin)}, cfg.VDDs, cfg.Vths, cfg.MaxSize)
		var best charlib.Cell
		bestErr := -1.0
		consider := func(cell charlib.Cell) error {
			if cell.VDD < minSuccVDD {
				return nil // no low-VDD gate may drive a high-VDD gate
			}
			d, err := lib.Delay(cell, load)
			if err != nil {
				return err
			}
			e := math.Abs(d - desired[id])
			if bestErr < 0 || e < bestErr {
				bestErr = e
				best = cell
			}
			return nil
		}
		if cfg.Hints != nil && cfg.Hints[id].Size > 0 {
			if err := consider(cfg.Hints[id]); err != nil {
				return nil, err
			}
		}
		for _, cell := range menu {
			if err := consider(cell); err != nil {
				return nil, err
			}
		}
		if bestErr < 0 {
			return nil, fmt.Errorf("sertopt: no feasible cell for gate %s (succ VDD %g exceeds menu)", g.Name, minSuccVDD)
		}
		cells[id] = best
		assigned[id] = true
	}
	return cells, nil
}

// gateDelays returns the per-gate delay vector (indexed by gate ID)
// under the assignment's own loads, straight from the library: the
// reference path's d0, and the matcher tests' targets.
func gateDelays(c *ckt.Circuit, lib *charlib.Library, cells []charlib.Cell, poLoad float64) ([]float64, error) {
	loads, err := refGateLoads(c, lib, cells, poLoad)
	if err != nil {
		return nil, err
	}
	d := make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		dd, err := lib.Delay(cells[g.ID], loads[g.ID])
		if err != nil {
			return nil, err
		}
		d[g.ID] = dd
	}
	return d, nil
}

// refGateLoads is the per-edge load derivation every flow used before
// the cell table: each gate's output load is the input capacitance of
// every fanout pin, read from the library edge by edge, plus the PO
// latch load where applicable.
func refGateLoads(c *ckt.Circuit, lib *charlib.Library, cells []charlib.Cell, poLoad float64) ([]float64, error) {
	loads := make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		for _, s := range g.Fanout {
			p, err := lib.Props(cells[s])
			if err != nil {
				return nil, fmt.Errorf("strike: input cap of gate %s: %v", c.Gates[s].Name, err)
			}
			loads[g.ID] += p.InputCap
		}
		if g.PO {
			loads[g.ID] += poLoad
		}
	}
	return loads, nil
}

// refEnumerateSources is strike.EnumerateSources before the cell
// table: loads from refGateLoads, then every gate's delay, generated
// glitch width and flux weight straight from the library and the cell.
func refEnumerateSources(cc *engine.CompiledCircuit, lib *charlib.Library, cells []charlib.Cell, poLoad float64) (*strike.Sources, error) {
	c := cc.Circuit()
	if len(cells) != len(c.Gates) {
		return nil, fmt.Errorf("strike: %d cells for %d gates", len(cells), len(c.Gates))
	}
	loads, err := refGateLoads(c, lib, cells, poLoad)
	if err != nil {
		return nil, err
	}
	src := &strike.Sources{
		Loads:    loads,
		Delays:   make([]float64, len(c.Gates)),
		GenWidth: make([]float64, len(c.Gates)),
		Flux:     make([]float64, len(c.Gates)),
	}
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		d, err := lib.Delay(cells[g.ID], loads[g.ID])
		if err != nil {
			return nil, fmt.Errorf("strike: delay of %s: %v", g.Name, err)
		}
		src.Delays[g.ID] = d
		w, err := lib.GlitchGen(cells[g.ID], loads[g.ID])
		if err != nil {
			return nil, fmt.Errorf("strike: glitch gen of %s: %v", g.Name, err)
		}
		src.GenWidth[g.ID] = w
		src.Flux[g.ID] = cells[g.ID].FluxWeight()
	}
	return src, nil
}

// refInitialSizing is InitialSizing before the cell table: every pass
// derives the loads edge by edge (refGateLoads) and asks the library
// for each gate's unit-size input capacitance.
func refInitialSizing(c *ckt.Circuit, lib *charlib.Library, poLoad float64) ([]charlib.Cell, error) {
	nominal, err := charlib.NominalAssignment(c, lib, 1)
	if err != nil {
		return nil, err
	}
	cells := cellsOf(nominal)
	sizes := lib.Grid.Sizes
	for pass := 0; pass < 3; pass++ {
		loads, err := refGateLoads(c, lib, cells, poLoad)
		if err != nil {
			return nil, err
		}
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			unit := cells[g.ID]
			unit.Size = 1
			p, err := lib.Props(unit)
			if err != nil {
				return nil, err
			}
			// Target electrical fanout of ~3 unit input caps per size
			// step, snapped to the library's size grid.
			want := loads[g.ID] / (3 * p.InputCap)
			best := sizes[0]
			for _, s := range sizes {
				if math.Abs(s-want) < math.Abs(best-want) {
					best = s
				}
			}
			cells[g.ID].Size = best
		}
	}
	return cells, nil
}

// referenceMetrics computes an assignment's metrics straight from the
// library.
func referenceMetrics(cc *engine.CompiledCircuit, lib *charlib.Library, cells []charlib.Cell, sens *logicsim.Result, poLoad float64) (Metrics, error) {
	c := cc.Circuit()
	var m Metrics
	loads, err := refGateLoads(c, lib, cells, poLoad)
	if err != nil {
		return m, err
	}
	// Critical path: longest arrival over the DAG.
	arrival := make([]float64, len(c.Gates))
	order := cc.TopoOrder()
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		d, err := lib.Delay(cells[id], loads[id])
		if err != nil {
			return m, fmt.Errorf("sertopt: delay of %s: %v", g.Name, err)
		}
		in := 0.0
		for _, f := range g.Fanin {
			if arrival[f] > in {
				in = arrival[f]
			}
		}
		arrival[id] = in + d
		if g.PO && arrival[id] > m.Delay {
			m.Delay = arrival[id]
		}
	}
	// Energy and area.
	period := ClockPeriodFactor * m.Delay
	var dyn, leakP float64
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		act := 0.2
		if sens != nil {
			act = sens.Activity[g.ID]
		}
		p, err := lib.Props(cells[g.ID])
		if err != nil {
			return m, err
		}
		vdd := cells[g.ID].VDD
		dyn += act * ((p.SelfCap + loads[g.ID]) * vdd * vdd)
		leakP += p.StaticPower
		m.Area += p.Area
	}
	m.Energy = dyn + leakP*period
	return m, nil
}

// refEvalOut bundles one reference cost evaluation's artifacts.
type refEvalOut struct {
	an *aserta.Analysis
	m  Metrics
	c  float64
}

type refEvalFn func([]float64) (*refEvalOut, error)

// referenceSQP is the SQP-lite search over reference evaluations.
func referenceSQP(theta []float64, best *refEvalOut, eval refEvalFn, opts Options, history *[]float64) (*refEvalOut, []float64, error) {
	step := opts.StepInit
	// The discrete cell menu makes the cost piecewise constant, so the
	// difference step must be large enough to flip at least some cell
	// choices; probing at the full step scale keeps the "gradient"
	// informative. sweep is the coordinate-probe scale, refined when an
	// iteration is flat.
	h := opts.StepInit
	sweep := opts.StepInit
	grad := make([]float64, len(theta))
	for iter := 0; iter < opts.Iterations; iter++ {
		// Forward-difference gradient at menu scale.
		gnorm := 0.0
		for k := range theta {
			theta[k] += h
			out, err := eval(theta)
			theta[k] -= h
			if err != nil {
				return nil, nil, err
			}
			grad[k] = (out.c - best.c) / h
			gnorm += grad[k] * grad[k]
		}
		gnorm = math.Sqrt(gnorm)
		improved := false
		if gnorm > 0 {
			// Backtracking line search along -grad.
			for try := 0; try < 5; try++ {
				cand := append([]float64(nil), theta...)
				matrix.AddScaled(cand, -step/gnorm, grad)
				out, err := eval(cand)
				if err != nil {
					return nil, nil, err
				}
				if out.c < best.c {
					best = out
					theta = cand
					*history = append(*history, out.c)
					improved = true
					step *= 1.5
					break
				}
				step /= 2
			}
		}
		if !improved {
			// Greedy coordinate sweep: the quantized landscape is flat
			// at this scale in every smoothed direction; probe each
			// basis coordinate at double scale in both signs and keep
			// every strict improvement as we go.
			for k := range theta {
				for _, sign := range []float64{1, -1} {
					cand := append([]float64(nil), theta...)
					cand[k] += sign * 2 * sweep
					out, err := eval(cand)
					if err != nil {
						return nil, nil, err
					}
					if out.c < best.c {
						best = out
						theta = cand
						*history = append(*history, out.c)
						improved = true
						break // next coordinate
					}
				}
			}
		}
		if !improved {
			// The cell menu's delay spacing is grid-dependent; when a
			// whole iteration is flat at this scale, refine and retry
			// before giving up (multi-scale pattern search).
			if sweep > opts.StepInit/8 {
				sweep /= 2
				h /= 2
				continue
			}
			break
		}
	}
	return best, theta, nil
}

// referenceAnneal is the annealing search over reference evaluations.
func referenceAnneal(theta []float64, best *refEvalOut, eval refEvalFn, opts Options, rng *stats.RNG, history *[]float64) (*refEvalOut, []float64, error) {
	cur := best
	curTheta := append([]float64(nil), theta...)
	bestTheta := append([]float64(nil), theta...)
	// Temperature scaled to the size of cost improvements actually
	// seen on the quantized landscape (~1% of cost), not to the cost
	// itself — a hotter schedule random-walks without ever locking in.
	temp := 0.01 * best.c
	cooling := 0.75
	movesPerIter := 2 * len(theta)
	if movesPerIter == 0 {
		return best, theta, nil
	}
	for iter := 0; iter < opts.Iterations; iter++ {
		for mv := 0; mv < movesPerIter; mv++ {
			k := rng.Intn(len(curTheta))
			cand := append([]float64(nil), curTheta...)
			cand[k] += rng.NormFloat64() * opts.StepInit
			out, err := eval(cand)
			if err != nil {
				return nil, nil, err
			}
			accept := out.c < cur.c
			if !accept && temp > 0 {
				accept = rng.Float64() < math.Exp(-(out.c-cur.c)/temp)
			}
			if accept {
				cur = out
				curTheta = cand
				if out.c < best.c {
					best = out
					bestTheta = append([]float64(nil), cand...)
					*history = append(*history, out.c)
				}
			}
		}
		temp *= cooling
	}
	return best, bestTheta, nil
}

// TestOptimizeMatchesReference holds OptimizeCompiled to the reference
// optimizer bit for bit: every cell, metric, cost and History entry,
// the evaluation count (memo hits included), and both analyses' U, Ui,
// WS, Wij and sources. The grid covers both searches, two seeds and a
// long SQP run whose polls revisit many assignments. OptAnalysis must
// be BaseAnalysis itself exactly when the reference's winner is its
// baseline, and at least one run must end there.
func TestOptimizeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference optimizer on six circuits")
	}
	type run struct {
		method       string
		basis, iters int
		seed         uint64
	}
	grid := []run{{"sqp", 8, 4, 1}, {"sqp", 8, 4, 2}, {"anneal", 16, 4, 1}}
	cases := map[string][]run{}
	for _, name := range []string{"c17", "c432", "c499", "c880", "c1355", "c1908"} {
		cases[name] = grid
	}
	cases["c432"] = append(cases["c432"], run{"sqp", 40, 8, 1})
	baselineWins := 0
	for _, name := range []string{"c17", "c432", "c499", "c880", "c1355", "c1908"} {
		c, err := benchCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := engine.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cases[name] {
			opts := Options{
				Match:      MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
				Vectors:    2000,
				Iterations: r.iters,
				MaxBasis:   r.basis,
				Seed:       r.seed,
				Method:     r.method,
			}
			label := fmt.Sprintf("%s/%s/basis%d/iters%d/seed%d", name, r.method, r.basis, r.iters, r.seed)
			want, err := referenceOptimize(cc, lib(), opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := OptimizeCompiled(cc, lib(), opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if msg := diffResults(got, want); msg != "" {
				t.Errorf("%s: %s", label, msg)
			}
			baselineWon := diffCells("", cellsOf(want.Optimized), cellsOf(want.Baseline)) == ""
			if shared := got.OptAnalysis == got.BaseAnalysis; shared != baselineWon {
				t.Errorf("%s: OptAnalysis shared with BaseAnalysis: %v, reference winner is the baseline: %v", label, shared, baselineWon)
			}
			if baselineWon {
				baselineWins++
			}
			t.Logf("%s: %d evaluations, U decrease %.4f", label, got.Evaluations, got.UDecrease())
		}
	}
	if baselineWins == 0 {
		t.Error("no run's winner is the baseline, so the shared-analysis branch went untested")
	}
}

// benchCircuit returns c17 or an ISCAS-85 profile circuit.
func benchCircuit(name string) (*ckt.Circuit, error) {
	if name == "c17" {
		return gen.C17(), nil
	}
	return gen.ISCAS85(name)
}

// diffResults describes the first difference between two optimizer
// results, comparing floats by their bits ("" when identical).
func diffResults(got, want *Result) string {
	if msg := diffCells("Baseline", cellsOf(got.Baseline), cellsOf(want.Baseline)); msg != "" {
		return msg
	}
	if msg := diffCells("Optimized", cellsOf(got.Optimized), cellsOf(want.Optimized)); msg != "" {
		return msg
	}
	for _, m := range []struct {
		name      string
		got, want Metrics
	}{{"BaseMetrics", got.BaseMetrics, want.BaseMetrics}, {"OptMetrics", got.OptMetrics, want.OptMetrics}} {
		if msg := diffFloats(m.name, []float64{m.got.Delay, m.got.Energy, m.got.Area}, []float64{m.want.Delay, m.want.Energy, m.want.Area}); msg != "" {
			return msg
		}
	}
	if msg := diffFloats("Cost", []float64{got.Cost}, []float64{want.Cost}); msg != "" {
		return msg
	}
	if msg := diffFloats("History", got.History, want.History); msg != "" {
		return msg
	}
	if got.Evaluations != want.Evaluations {
		return fmt.Sprintf("Evaluations %d, want %d", got.Evaluations, want.Evaluations)
	}
	if msg := diffAnalyses("BaseAnalysis", got.BaseAnalysis, want.BaseAnalysis); msg != "" {
		return msg
	}
	return diffAnalyses("OptAnalysis", got.OptAnalysis, want.OptAnalysis)
}

// diffAnalyses compares two analyses' totals, tables and sources.
func diffAnalyses(name string, got, want *aserta.Analysis) string {
	if msg := diffCells(name+".Cells", cellsOf(got.Cells), cellsOf(want.Cells)); msg != "" {
		return msg
	}
	if msg := diffFloats(name+".U", []float64{got.U}, []float64{want.U}); msg != "" {
		return msg
	}
	for _, f := range []struct {
		field     string
		got, want []float64
	}{
		{"Ui", got.Ui, want.Ui},
		{"Loads", got.Loads, want.Loads},
		{"Delays", got.Delays, want.Delays},
		{"GenWidth", got.GenWidth, want.GenWidth},
		{"Flux", got.Flux, want.Flux},
	} {
		if msg := diffFloats(name+"."+f.field, f.got, f.want); msg != "" {
			return msg
		}
	}
	gotWS, wantWS := got.WSTable(), want.WSTable()
	if len(got.Wij) != len(want.Wij) || len(gotWS) != len(wantWS) {
		return fmt.Sprintf("%s: %d Wij / %d WS rows, want %d / %d", name, len(got.Wij), len(gotWS), len(want.Wij), len(wantWS))
	}
	for i := range want.Wij {
		if msg := diffFloats(fmt.Sprintf("%s.Wij[%d]", name, i), got.Wij[i], want.Wij[i]); msg != "" {
			return msg
		}
		if len(gotWS[i]) != len(wantWS[i]) {
			return fmt.Sprintf("%s.WS[%d]: %d columns, want %d", name, i, len(gotWS[i]), len(wantWS[i]))
		}
		for j := range wantWS[i] {
			if msg := diffFloats(fmt.Sprintf("%s.WS[%d][%d]", name, i, j), gotWS[i][j], wantWS[i][j]); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// cellsOf spells an assignment out as the per-gate cell list the
// references work on.
func cellsOf(a charlib.Assignment) []charlib.Cell {
	cells := make([]charlib.Cell, len(a.IDs))
	for g := range cells {
		cells[g] = a.Cell(g)
	}
	return cells
}

func diffCells(name string, got, want []charlib.Cell) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d cells, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d] = %+v, want %+v", name, i, got[i], want[i])
		}
	}
	return ""
}

func diffFloats(name string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d] = %.17g, want %.17g", name, i, got[i], want[i])
		}
	}
	return ""
}
