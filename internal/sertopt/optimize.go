package sertopt

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/matrix"
	"repro/internal/stats"
	"repro/internal/strike"
	"repro/internal/trace"
)

// Weights are the designer-chosen cost weights of Eq. 5. "A designer
// can easily change the optimization constraints by changing the ratio
// of the weights."
type Weights struct {
	U, T, E, A float64
}

// DefaultWeights emphasizes unreliability with a timing guard and
// light pressure on energy and area, mirroring the paper's Table 1
// trade-off (up to ~2× area/energy accepted for up to 47% lower U).
func DefaultWeights() Weights { return Weights{U: 1.0, T: 0.5, E: 0.08, A: 0.08} }

// Options configures an optimization run.
type Options struct {
	Match   MatchConfig
	Weights Weights
	// MaxBasis caps the number of nullspace directions explored per
	// iteration (gradient cost grows linearly with it).
	MaxBasis int
	// Iterations bounds optimizer iterations.
	Iterations int
	// Vectors feeds the one-time sensitization analysis.
	Vectors int
	Seed    uint64
	// Method selects "sqp" (projected gradient SQP-lite, default) or
	// "anneal" (simulated annealing).
	Method string
	// StepInit is the initial delay perturbation scale (s); default
	// 20 ps.
	StepInit float64
}

func (o Options) withDefaults() Options {
	if o.Weights == (Weights{}) {
		o.Weights = DefaultWeights()
	}
	if o.MaxBasis == 0 {
		o.MaxBasis = 16
	}
	if o.Iterations == 0 {
		o.Iterations = 8
	}
	if o.Vectors == 0 {
		o.Vectors = engine.DefaultVectors
	}
	if o.Method == "" {
		o.Method = "sqp"
	}
	if o.StepInit == 0 {
		// Must be comparable to the delay spacing of adjacent menu
		// cells, or the quantized cost landscape looks flat (see the
		// CALIBRATE=1 runs in calibration_test.go).
		o.StepInit = 20e-12
	}
	return o
}

// Result is the outcome of one SERTOPT run.
type Result struct {
	// Baseline and Optimized share the run's one cell table.
	Baseline  charlib.Assignment
	Optimized charlib.Assignment

	BaseAnalysis *aserta.Analysis
	// OptAnalysis analyzes Optimized. It is the same pointer as
	// BaseAnalysis, and Optimized the same assignment as Baseline, when
	// the search found nothing better than the baseline.
	OptAnalysis *aserta.Analysis

	BaseMetrics Metrics
	OptMetrics  Metrics

	// Cost is the final Eq. 5 cost (baseline cost is W·1 summed).
	Cost float64
	// History records the accepted cost after each iteration.
	History []float64
	// Evaluations counts cost-function evaluations, including those
	// answered from the run's memo of already scored assignments.
	Evaluations int
}

// UDecrease returns the fractional unreliability reduction
// (1 − U_opt/U_base), the paper's Table 1 headline metric.
func (r *Result) UDecrease() float64 {
	if r.BaseAnalysis.U == 0 {
		return 0
	}
	return 1 - r.OptAnalysis.U/r.BaseAnalysis.U
}

// Ratios returns area, energy and delay ratios versus baseline
// (Table 1 columns 4–6).
func (r *Result) Ratios() (area, energy, delay float64) {
	return r.OptMetrics.Area / r.BaseMetrics.Area,
		r.OptMetrics.Energy / r.BaseMetrics.Energy,
		r.OptMetrics.Delay / r.BaseMetrics.Delay
}

// OptimizeCompiled runs the full SERTOPT flow against a compiled
// circuit. The one-time sensitization statistics come from the
// handle's memo (shared with ASERTA analyses of the same netlist at
// the same vectors/seed), and every inner cost evaluation reuses the
// compiled topological orders instead of re-deriving them.
//
// The run keeps one cell table (charlib.Table): the baseline sizing's,
// to which the matcher adds every menu cell. The baseline's loads,
// delays, glitch widths and flux weights are derived once from it
// (strike.EnumerateSources) and feed both its metrics and its
// analysis. A cost evaluation matches cells to the candidate delays
// over the same table, re-deciding only the gates
// whose matching inputs changed since the previous evaluation; scores
// the matcher's loads, delays, glitch widths and flux weights with the
// metrics core and with BaseAnalysis.SourcesU, an exact incremental
// evaluation that re-does only what differs from the baseline and
// returns the U a full analysis of the candidate would, bit for bit;
// and memoizes the cost by the assignment, so a repeated assignment
// costs only its matching. The memo starts out holding the baseline.
// The winning assignment alone is analyzed in full (OptAnalysis), and
// only when it is not the baseline.
func OptimizeCompiled(cc *engine.CompiledCircuit, lib *charlib.Library, opts Options) (*Result, error) {
	c := cc.Circuit()
	if c.Sequential() {
		return nil, fmt.Errorf("sertopt: circuit %q has flip-flops; SERTOPT optimizes combinational logic only", c.Name)
	}
	opts = opts.withDefaults()
	res := &Result{}

	// Baseline: speed-oriented sizing at nominal L/VDD/Vth.
	baseline, err := InitialSizing(c, lib, engine.DefaultPOLoad)
	if err != nil {
		return nil, err
	}
	res.Baseline = baseline

	// One-time logic analysis, shared by every cost evaluation: the
	// baseline and winner analyses resolve the same (vectors, seed)
	// entry of the handle's memo. The optimizer is the incremental
	// configuration of the shared strike pipeline: candidate scoring
	// and gradient seeding re-enter it through SourcesU and RecomputeU
	// (strike.Delta), re-doing only what differs from the baseline.
	sens, err := logicsim.Sensitization(cc, opts.Vectors, opts.Seed)
	if err != nil {
		return nil, err
	}
	// The baseline anchors matching: each gate's baseline cell is its
	// hint, so θ=0 reproduces the baseline exactly.
	match, err := newMatcher(cc, opts.Match, baseline)
	if err != nil {
		return nil, err
	}
	// The baseline's loads, delays, glitch widths and flux weights,
	// derived once for its metrics and its analysis; timed as the
	// stage aserta.AnalyzeCompiled would record for them.
	endSources := trace.StartStage(nil, "strike.sources")
	src, err := strike.EnumerateSources(cc, baseline, engine.DefaultPOLoad)
	endSources()
	if err != nil {
		return nil, err
	}
	res.BaseMetrics = metricsOf(cc, sens, src.Loads, src.Delays, baseline)
	// Latch-capture saturation at the circuit's own clock (1.2x the
	// baseline critical path), for both baseline and candidates.
	acfg := aserta.Config{
		Vectors:     opts.Vectors,
		Seed:        opts.Seed,
		POLoad:      engine.DefaultPOLoad,
		ClockPeriod: ClockPeriodFactor * res.BaseMetrics.Delay,
	}
	res.BaseAnalysis, err = aserta.AnalyzeSources(cc, baseline, src, acfg)
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
	basis := topo.Nullspace(opts.MaxBasis)
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

	w := opts.Weights
	cost := func(m Metrics, u float64) float64 {
		return w.U*u/res.BaseAnalysis.U +
			w.T*m.Delay/res.BaseMetrics.Delay +
			w.E*m.Energy/res.BaseMetrics.Energy +
			w.A*m.Area/res.BaseMetrics.Area
	}

	baseOut := &evalOut{ids: baseline.IDs, m: res.BaseMetrics, c: cost(res.BaseMetrics, res.BaseAnalysis.U)}
	memo := map[string]*evalOut{string(appendKey(nil, baseline.IDs)): baseOut}
	var key []byte

	// The baseline analysis holds every gate's delay under its own
	// loads; it is also the delta baseline, so it is never written.
	d0 := res.BaseAnalysis.Delays
	d := make([]float64, len(d0))
	// evalTheta matches cells for d = d0 + Z·θ and scores them.
	evalTheta := func(theta []float64) (*evalOut, error) {
		res.Evaluations++
		copy(d, d0)
		for bi, z := range basis {
			if theta[bi] == 0 {
				continue
			}
			matrix.AddScaled(d, theta[bi], z)
		}
		const minDelay = 0.5e-12
		for i := range d {
			if d[i] < minDelay {
				d[i] = minDelay
			}
		}
		if err := match.match(d); err != nil {
			return nil, err
		}
		key = appendKey(key[:0], match.ids)
		if out, ok := memo[string(key)]; ok {
			return out, nil
		}
		cells := charlib.Assignment{T: match.tab, IDs: match.ids}
		u, err := res.BaseAnalysis.SourcesU(&match.src)
		if err != nil {
			return nil, err
		}
		m := metricsOf(cc, sens, match.src.Loads, match.src.Delays, cells)
		out := &evalOut{ids: append([]int32(nil), match.ids...), m: m, c: cost(m, u)}
		memo[string(key)] = out
		return out, nil
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
		seed, err := gradientSeed(cc, basis, res.BaseAnalysis, opts.StepInit)
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

	rng := stats.NewRNG(opts.Seed + 0x5e27097)
	switch opts.Method {
	case "sqp":
		best, err = optimizeSQP(theta, best, evalTheta, opts, &res.History)
	case "anneal":
		best, err = optimizeAnneal(theta, best, evalTheta, opts, rng, &res.History)
	default:
		return nil, fmt.Errorf("sertopt: unknown method %q", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	if best == baseOut {
		// The search accepted no move, so the winner's analysis is at
		// hand.
		res.Optimized, res.OptAnalysis = res.Baseline, res.BaseAnalysis
	} else {
		res.Optimized = charlib.Assignment{T: baseline.T, IDs: best.ids}
		res.OptAnalysis, err = aserta.AnalyzeCompiled(cc, res.Optimized, acfg)
		if err != nil {
			return nil, err
		}
	}
	res.OptMetrics = best.m
	res.Cost = best.c
	return res, nil
}

// appendKey appends the memo key of a cell-ID vector to key.
func appendKey(key []byte, ids []int32) []byte {
	for _, id := range ids {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	return key
}

// gradientSeed returns the θ (basis coefficients) of the projected
// −dU/dd direction, scaled so the largest per-gate delay move equals
// stepInit, or nil when the gradient is flat. basis and the gradient
// are indexed by gate ID. Sensitivities are only probed for gates
// within a few levels of the POs — electrical and logical masking make
// deeper gates' contributions (and sensitivities) negligible, and this
// bounds the seeding cost on large circuits — and only where some
// basis vector is nonzero: the projection never reads the gradient
// anywhere else, since LeastSquares skips zero entries of Z when it
// forms Zᵀv. Each probe starts from the baseline, so skipping one
// changes no other.
func gradientSeed(cc *engine.CompiledCircuit, basis [][]float64, base *aserta.Analysis, stepInit float64) ([]float64, error) {
	const sensDepth = 8
	const h = 2e-12
	depth := cc.DepthFromPO()
	grad := make([]float64, len(base.Delays))
	d := append([]float64(nil), base.Delays...)
	any := false
	for _, g := range cc.Circuit().Gates {
		id := g.ID
		if g.Type == ckt.Input || depth[id] < 0 || depth[id] > sensDepth || !inSupport(basis, id) {
			continue
		}
		d[id] += h
		u, err := base.RecomputeU(d)
		d[id] = base.Delays[id]
		if err != nil {
			return nil, err
		}
		grad[id] = (u - base.U) / h
		if grad[id] != 0 {
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
	// Scale so the largest per-gate delay move is stepInit.
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
	f := stepInit / m
	for i := range theta {
		theta[i] *= f
	}
	return theta, nil
}

// inSupport reports whether some basis vector is nonzero at gate id.
func inSupport(basis [][]float64, id int) bool {
	for _, z := range basis {
		if z[id] != 0 {
			return true
		}
	}
	return false
}

// evalOut is one scored assignment as the memo keeps it: its cell IDs,
// its metrics and its Eq. 5 cost.
type evalOut struct {
	ids []int32
	m   Metrics
	c   float64
}

type evalFn func([]float64) (*evalOut, error)

// optimizeSQP is the projected-gradient SQP-lite search: because Δ is
// already restricted to the nullspace basis, plain gradient steps in θ
// respect the timing constraint by construction, and a backtracking
// line search provides the damping an SQP trust region would. The
// paper used MATLAB's SQP; §4 explicitly allows other optimizers.
func optimizeSQP(theta []float64, best *evalOut, eval evalFn, opts Options, history *[]float64) (*evalOut, error) {
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
				return nil, err
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
					return nil, err
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
						return nil, err
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
	return best, nil
}

// optimizeAnneal is the simulated-annealing alternative mentioned in
// §4: coordinate-wise Gaussian perturbations accepted by the
// Metropolis criterion under a geometric cooling schedule.
func optimizeAnneal(theta []float64, best *evalOut, eval evalFn, opts Options, rng *stats.RNG, history *[]float64) (*evalOut, error) {
	cur := best
	curTheta := append([]float64(nil), theta...)
	// Temperature scaled to the size of cost improvements actually
	// seen on the quantized landscape (~1% of cost), not to the cost
	// itself — a hotter schedule random-walks without ever locking in.
	temp := 0.01 * best.c
	cooling := 0.75
	movesPerIter := 2 * len(theta)
	if movesPerIter == 0 {
		return best, nil
	}
	for iter := 0; iter < opts.Iterations; iter++ {
		for mv := 0; mv < movesPerIter; mv++ {
			k := rng.Intn(len(curTheta))
			cand := append([]float64(nil), curTheta...)
			cand[k] += rng.NormFloat64() * opts.StepInit
			out, err := eval(cand)
			if err != nil {
				return nil, err
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
					*history = append(*history, out.c)
				}
			}
		}
		temp *= cooling
	}
	return best, nil
}
