// Package aserta implements ASERTA, the paper's soft-error tolerance
// analysis tool (§3). Given a circuit, a characterized cell library
// and a per-gate cell assignment, it estimates every gate's
// contribution U_i to circuit "unreliability" — the expected total
// width of strike-induced glitches reaching the primary outputs — and
// the circuit total U = Σ U_i (Eqs. 3–4).
//
// The estimate combines the paper's three masking models:
//
//   - logical masking: sensitization probabilities P_ij from 10,000
//     random vectors plus the per-successor split π_isj of Eq. 2;
//   - electrical masking: the Eq. 1 glitch attenuation applied in one
//     reverse-topological pass over 10 sample glitch widths (§3.2);
//   - latching-window masking: capture probability proportional to
//     the glitch width arriving at the PO, scaled by gate area Z_i.
//
// ASERTA is the combinational configuration of the shared
// strike-propagation pipeline (internal/strike): EnumerateSources →
// ElectricalFilter → Reduce, with no flop-capture window stage and the
// optimizer's exact incremental re-evaluation exposed through SourcesU
// and RecomputeU.
package aserta

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/engine"
	"repro/internal/logicsim"
	"repro/internal/strike"
	"repro/internal/trace"
)

// DefaultSampleWidths is the paper's sample-width count (§3.2: "the
// expected output glitch widths, WSijk, for 10 sample glitch widths").
const DefaultSampleWidths = engine.DefaultSampleWidths

// Config controls an ASERTA analysis.
type Config struct {
	// Vectors is the random-vector count for sensitization
	// probabilities (default 10,000, as in the paper).
	Vectors int
	// Seed feeds the deterministic RNG.
	Seed uint64
	// SampleWidths is the number of sample glitch widths used in the
	// electrical-masking pass (default 10).
	SampleWidths int
	// POLoad is the latch input capacitance on each primary output (F).
	POLoad float64
	// ClockPeriod caps each glitch width's latching contribution: the
	// paper's latching-window masking makes capture probability
	// proportional to glitch duration, which saturates at one clock
	// period (a glitch wider than the cycle is simply certain to be
	// latched). Default 300 ps; set from the circuit's own clock when
	// known (SERTOPT uses 1.2x the baseline critical path).
	ClockPeriod float64
	// Spans, when non-nil, receives one span per pipeline stage
	// (sources, sensitization, electrical, reduce). Timing is
	// observational only — it never alters numerics or RNG streams —
	// and the nil default costs nothing beyond the global stage
	// histograms. RecomputeU is deliberately not instrumented: it is
	// the optimizer's inner loop.
	Spans *trace.Recorder
}

// withDefaults fills zero fields with the shared engine defaults.
func (cfg Config) withDefaults() Config {
	p := engine.Params{
		Vectors:      cfg.Vectors,
		SampleWidths: cfg.SampleWidths,
		POLoad:       cfg.POLoad,
		ClockPeriod:  cfg.ClockPeriod,
	}
	p.Normalize()
	cfg.Vectors = p.Vectors
	cfg.SampleWidths = p.SampleWidths
	cfg.POLoad = p.POLoad
	cfg.ClockPeriod = p.ClockPeriod
	return cfg
}

// Analysis is the full ASERTA result.
type Analysis struct {
	Circuit *ckt.Circuit
	// Cells is the analyzed cell assignment.
	Cells  charlib.Assignment
	Config Config

	// cc is the compiled artifact the analysis ran against.
	cc *engine.CompiledCircuit

	// Loads[i] is the capacitive load on gate i's output (F).
	Loads []float64
	// Delays[i] is gate i's propagation delay under its load (s).
	Delays []float64
	// GenWidth[i] is the strike-induced glitch width w_i at gate i (s).
	GenWidth []float64
	// Flux[i] is gate i's Eq. 3 flux weight Z_i.
	Flux []float64
	// Sens carries static and sensitization probabilities.
	Sens *logicsim.Result
	// Wij[i][k] is the expected glitch width at the k-th PO for a
	// strike at gate i (paper's W_ij).
	Wij [][]float64
	// Ui[i] is gate i's unreliability contribution (Eq. 3).
	Ui []float64
	// U is the circuit unreliability (Eq. 4).
	U float64

	// Samples is the sample-width ladder ws_k of the §3.2 pass (the
	// columns of WSTable's rows).
	Samples []float64

	// prop is the shared pipeline's ElectricalFilter stage; delta its
	// incremental configuration, which also holds the compact baseline
	// WS table once something asks for it. SourcesU and RecomputeU share
	// the delta's scratch arenas and are therefore not safe for
	// concurrent use on one Analysis.
	prop  *strike.Propagator
	delta *strike.Delta
	// ws holds WSTable's views, built once under wsOnce.
	ws     [][][]float64
	wsOnce sync.Once
}

// AnalyzeCompiled runs the full ASERTA flow against a compiled
// circuit. The netlist-derived work (topological orders, levels and
// the sensitization simulation) is served from the handle, so callers
// analyzing one netlist repeatedly compile it once (engine.Compile)
// and share the memoized sensitization statistics across analyses.
// The cells' table carries the library the analysis reads.
func AnalyzeCompiled(cc *engine.CompiledCircuit, cells charlib.Assignment, cfg Config) (*Analysis, error) {
	cfg = cfg.withDefaults()
	if err := checkShape(cc.Circuit(), cells); err != nil {
		return nil, err
	}
	// Stage 1: EnumerateSources — loads, delays, generated widths and
	// flux weights from the cell assignment.
	endSources := trace.StartStage(cfg.Spans, "strike.sources")
	src, err := strike.EnumerateSources(cc, cells, cfg.POLoad)
	if err != nil {
		return nil, err
	}
	endSources()
	return analyzeSources(cc, cells, src, cfg)
}

// checkShape rejects sequential circuits and assignments that do not
// give every logic gate a cell of the gate's own class: the gate's
// type and fan-in.
func checkShape(c *ckt.Circuit, cells charlib.Assignment) error {
	if c.Sequential() {
		return fmt.Errorf("aserta: circuit %q has flip-flops; analyze its combinational frame (internal/seq)", c.Name)
	}
	if len(cells.IDs) != len(c.Gates) {
		return fmt.Errorf("aserta: %d cells for %d gates", len(cells.IDs), len(c.Gates))
	}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		if id := cells.IDs[g.ID]; id < 0 || int(id) >= cells.T.Len() {
			return fmt.Errorf("aserta: gate %s has no cell (ID %d of %d)", g.Name, id, cells.T.Len())
		}
		if want, got := charlib.ClassOf(g), cells.Cell(g.ID).Class(); got != want {
			return fmt.Errorf("aserta: gate %s is a %v but assigned a %v cell", g.Name, want, got)
		}
	}
	return nil
}

// AnalyzeSources runs the flow after its first stage: src must be what
// strike.EnumerateSources derives from cells at cfg.POLoad. It lets a
// caller that already knows every gate's load, delay, generated width
// and flux weight — SERTOPT's matcher computes them while choosing the
// cells — skip re-deriving them; AnalyzeCompiled is EnumerateSources
// followed by this. The analysis keeps src's slices as its Loads,
// Delays, GenWidth and Flux.
func AnalyzeSources(cc *engine.CompiledCircuit, cells charlib.Assignment, src *strike.Sources, cfg Config) (*Analysis, error) {
	cfg = cfg.withDefaults()
	c := cc.Circuit()
	if err := checkShape(c, cells); err != nil {
		return nil, err
	}
	for _, s := range [][]float64{src.Loads, src.Delays, src.GenWidth, src.Flux} {
		if len(s) != len(c.Gates) {
			return nil, fmt.Errorf("aserta: source slice of %d entries for %d gates", len(s), len(c.Gates))
		}
	}
	return analyzeSources(cc, cells, src, cfg)
}

// analyzeSources is AnalyzeSources on checked arguments.
func analyzeSources(cc *engine.CompiledCircuit, cells charlib.Assignment, src *strike.Sources, cfg Config) (*Analysis, error) {
	c := cc.Circuit()
	a := &Analysis{Circuit: c, cc: cc, Cells: cells, Config: cfg}
	a.Loads, a.Delays, a.GenWidth, a.Flux = src.Loads, src.Delays, src.GenWidth, src.Flux

	// Memoized on the handle: repeated analyses of one compiled circuit
	// (the serving tier's warm path, SERTOPT's cost loop, the
	// sequential engine's frames) run the simulation once per
	// (vectors, seed) pair.
	endSens := trace.StartStage(cfg.Spans, "logicsim.sensitization")
	sens, err := logicsim.Sensitization(cc, cfg.Vectors, cfg.Seed)
	endSens()
	if err != nil {
		return nil, err
	}
	a.Sens = sens

	// Stage 2: ElectricalFilter — the §3.2 reverse-topological pass
	// for the baseline delays, over the (gate, PO) pairs P_ij can
	// reach. Only Wij, which the reduce reads, is kept; the pass works
	// in a recycled compact arena, and WSTable builds the full WS table
	// if something asks for it.
	endElec := trace.StartStage(cfg.Spans, "strike.electrical")
	a.Samples = cfg.sampleWidths()
	a.prop = strike.NewPropagator(cc, a.Sens, a.GenWidth, a.Samples)
	nGates := len(c.Gates)
	nPOs := len(c.Outputs())
	wij := make([]float64, nGates*nPOs)
	a.prop.Run(a.Delays, nil, wij)
	a.Wij = make([][]float64, nGates)
	for i := range a.Wij {
		a.Wij[i] = wij[i*nPOs : (i+1)*nPOs]
	}
	endElec()

	// Stage 3: LatchingWindow + Reduce — Eq. 3 per-gate contributions
	// and the Eq. 4 circuit total, with the incremental delta
	// configuration armed for SourcesU and RecomputeU.
	endReduce := trace.StartStage(cfg.Spans, "strike.reduce")
	a.Ui, a.U = strike.Reduce(c, a.Flux, a.Wij, cfg.ClockPeriod)
	a.delta = a.prop.NewDelta(src, wij, a.Ui, cfg.ClockPeriod)
	endReduce()
	return a, nil
}

// WSTable returns the §3.2 sample-width table of the baseline pass:
// WS[i][j][k] is the expected glitch width at the j-th PO for a glitch
// of width Samples[k] at gate i's output (zero where no path is
// sensitized). An analysis does not keep the table: the first call
// expands the delta's compact baseline table (strike.Delta.BaseWS,
// one row per (gate, PO) pair the pass visits, built by the first
// incremental RecomputeU or by this call) into a full nGates·nPOs·K
// arena, and every later call and SpectrumU share it. Safe for
// concurrent callers.
func (a *Analysis) WSTable() [][][]float64 {
	a.wsOnce.Do(func() {
		flat := a.prop.DenseWS(a.delta.BaseWS())
		K := len(a.Samples)
		rows := make([][]float64, len(flat)/K)
		for r := range rows {
			rows[r] = flat[r*K : (r+1)*K]
		}
		nPOs := len(a.Circuit.Outputs())
		a.ws = make([][][]float64, len(a.Circuit.Gates))
		for i := range a.ws {
			a.ws[i] = rows[i*nPOs : (i+1)*nPOs]
		}
	})
	return a.ws
}

// sampleWidths returns the geometric ladder of sample glitch widths
// used by the electrical-masking pass, ending at the wide width
// engine.DefaultWideWidth, the Lemma-1 "very wide glitch".
func (cfg Config) sampleWidths() []float64 {
	k := cfg.SampleWidths
	ws := make([]float64, k)
	// Geometric from 5 ps to the wide width.
	lo := 5e-12
	ratio := 1.0
	if k > 1 {
		ratio = math.Pow(engine.DefaultWideWidth/lo, 1/float64(k-1))
	}
	w := lo
	for i := 0; i < k; i++ {
		ws[i] = w
		w *= ratio
	}
	ws[k-1] = engine.DefaultWideWidth
	return ws
}

// RecomputeU re-evaluates the §3.2 electrical pass with an alternative
// per-gate delay vector, keeping loads, generated widths, flux weights
// and sensitization statistics fixed, and returns the resulting circuit
// unreliability. This is the delay-sensitivity oracle SERTOPT's
// gradient seeding uses, and SourcesU with only the delays changed: it
// is incremental and exact, equal bit for bit to RecomputeUFull. A NaN
// or infinite delay that differs from the analysis' own is an error
// naming its gate.
// Not safe for concurrent use on one Analysis (shared scratch arenas).
func (a *Analysis) RecomputeU(delays []float64) (float64, error) {
	return a.delta.Recompute(delays, a.GenWidth, a.Flux)
}

// RecomputeUFull is RecomputeU without the incremental shortcut: the
// complete electrical pass runs against the given delays (into scratch
// arenas — the analysis baseline is untouched). It is the exactness
// reference for the incremental path.
func (a *Analysis) RecomputeUFull(delays []float64) (float64, error) {
	return a.delta.RecomputeFull(delays, a.GenWidth, a.Flux)
}

// SourcesU returns the circuit unreliability of other sources for the
// analysis' circuit, at its configuration: exactly
// AnalyzeSources(cc, cells, src, a.Config).U for the cells src was
// derived from, without a full analysis. Only what the differences from
// the analysis' own sources reach is re-evaluated (strike.Delta): the
// fanin cones of the gates whose delays changed, and the gates whose
// generated width or flux weight changed. The compact baseline WS table
// the incremental path reads is built by the first call that needs it.
// Every call starts from the analysis' own sources, so error cannot
// accumulate across calls. A NaN or infinite delay, generated width or
// flux weight that differs from the analysis' own is an error naming
// its gate; the check rides on the comparisons with the baseline, so
// it costs no pass. Not safe for concurrent use on one Analysis
// (shared scratch arenas).
func (a *Analysis) SourcesU(src *strike.Sources) (float64, error) {
	for _, s := range [][]float64{src.Delays, src.GenWidth, src.Flux} {
		if len(s) != len(a.Circuit.Gates) {
			return 0, fmt.Errorf("aserta: source slice of %d entries for %d gates", len(s), len(a.Circuit.Gates))
		}
	}
	return a.delta.Recompute(src.Delays, src.GenWidth, src.Flux)
}
