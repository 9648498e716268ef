// Package seq is the sequential-circuit soft-error engine: it extends
// the paper's combinational ASERTA analysis across flip-flop
// boundaries, opening the ISCAS-89 family as a workload. Its one entry
// point is AnalyzeCompiledContext over a compiled circuit;
// ser.AnalyzeSequential wraps it for library users.
//
// The model follows the paper's masking chain, applied per clock
// cycle. A particle strike at gate i in cycle t is
//
//  1. filtered by the Eq. 1 electrical ladder and the Eq. 2 π-split
//     within cycle t's combinational frame (flop outputs are frame
//     sources, D-pin drivers are frame outputs — see BuildFrame);
//  2. latched with the Eq. 3 window probability: at a genuine primary
//     output the expected latched glitch width min(W_ij, Tclk) counts
//     directly (exactly the combinational Eq. 3), while at a flop's D
//     pin the glitch is captured into state with probability
//     min(W_if, Tclk)/Tclk;
//  3. once captured, propagated as a full-cycle logical fault through
//     subsequent frames — event-driven, bit-parallel fault simulation
//     against the fault-free run (strike.LogicalPropagate), which
//     re-evaluates only the gates the fault disturbs — until it
//     reaches a primary output or dies, each wrong latched PO value
//     counting as one full clock period of error width.
//
// The per-cycle unreliability is therefore
//
//	U = Σ_i flux_i/1ps · [ Σ_{p∈PO} min(W_ip,T)
//	                     + Σ_{f∈FF} min(W_if,T) · E_f ]
//
// where E_f is the expected number of erroneous latched PO values per
// captured fault in flop f within the analysis horizon, and the
// whole-circuit soft-error rate follows via serrate.FIT.
//
// Determinism: for a fixed seed the result is bit-identical between
// the serial and worker-pool paths — the sensitization statistics
// reuse logicsim's order-stable arenas, and the fault chase sums
// integer per-flop error counts over vector chunks.
package seq

import (
	"context"
	"fmt"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/engine"
	"repro/internal/serrate"
	"repro/internal/sertopt"
	"repro/internal/stats"
	"repro/internal/strike"
	"repro/internal/trace"
)

// DefaultCycles is the default multi-cycle fault-propagation horizon.
const DefaultCycles = 4

// DefaultFluxPerHour is the nominal particle-strike rate per
// flux-weight unit per hour used for the FIT conversion.
const DefaultFluxPerHour = 1e-5

// faultSeedOffset decorrelates the fault-propagation RNG stream from
// the sensitization stream derived from the same user seed.
const faultSeedOffset = 0x9e3779b97f4a7c15

// Options tune a sequential analysis. Zero values take the documented
// defaults.
type Options struct {
	// Cycles is the multi-cycle horizon K: captured faults are chased
	// through K frames (default DefaultCycles). Longer horizons count
	// longer-lived state corruption; E_f is censored at the horizon.
	Cycles int
	// Vectors is the random-vector count for both the sensitization
	// statistics and the frame trace (default logicsim.DefaultVectors).
	Vectors int
	// Seed feeds the deterministic RNGs.
	Seed uint64
	// POLoad is the latch input capacitance at every frame output —
	// genuine POs and flop D pins alike (default 2 fF).
	POLoad float64
	// ClockPeriod is T in the Eq. 3 window clamp (default 300 ps).
	ClockPeriod float64
	// InitState is the flops' reset state in Circuit.DFFs() order; nil
	// means all zeros.
	InitState []bool
	// Workers bounds the fault-propagation worker pool (<= 0: one per
	// CPU), whose workers split the vector set into chunks of at most
	// 1,024 vectors; the sensitization simulation runs through the
	// compiled handle's memo at full parallelism either way. Results
	// are bit-identical for any count.
	Workers int
}

func (o Options) withDefaults() Options {
	p := engine.Params{Vectors: o.Vectors, POLoad: o.POLoad, ClockPeriod: o.ClockPeriod}
	p.Normalize()
	o.Vectors = p.Vectors
	o.POLoad = p.POLoad
	o.ClockPeriod = p.ClockPeriod
	if o.Cycles <= 0 {
		o.Cycles = DefaultCycles
	}
	return o
}

// GateReport is one gate's sequential analysis summary.
type GateReport struct {
	Name string
	// U = DirectU + LatchedU is the gate's per-cycle unreliability
	// contribution (ps units, as in the combinational Eq. 3).
	U float64
	// DirectU counts strike glitches latched at genuine primary
	// outputs in the strike cycle.
	DirectU float64
	// LatchedU counts strike glitches captured into flops and
	// re-emitted at primary outputs in later cycles.
	LatchedU float64
	// GenWidth and Delay mirror the combinational report.
	GenWidth, Delay float64
}

// FlopReport is one flip-flop's summary.
type FlopReport struct {
	Name string
	// CaptureU is Σ_i flux_i · min(W_if, T) / 1ps: the flop's
	// per-cycle capture pressure from the electrical stage.
	CaptureU float64
	// ErrorsPerFault is E_f: the expected number of wrong latched PO
	// values caused by one captured fault, within the cycle horizon.
	ErrorsPerFault float64
}

// Result is the full sequential analysis outcome.
type Result struct {
	Circuit string
	Cycles  int
	Flops   int
	// U is the per-cycle circuit unreliability; DirectU and LatchedU
	// are its two components (U = DirectU + LatchedU).
	U, DirectU, LatchedU float64
	// FIT is the whole-circuit soft-error rate (failures per 1e9
	// device-hours) via serrate.FIT.
	FIT float64
	// Gates lists per-gate results for the frame's logic gates, in
	// netlist order.
	Gates []GateReport
	// FlopReports lists per-flop capture pressure and fault
	// visibility, in Circuit.DFFs() order.
	FlopReports []FlopReport
	// Frame exposes the underlying combinational frame analysis.
	Frame *aserta.Analysis
}

// AnalyzeCompiledContext runs the sequential SER analysis against a
// compiled circuit with cooperative cancellation: ctx is checked
// between pipeline stages (frame build, sizing, the frame analysis,
// fault propagation). A stage already running is not interrupted, so
// cancellation latency is bounded by the longest single stage. The
// library must already cover (or lazily characterize) the frame's gate
// classes; ser.AnalyzeSequential wraps this with context-aware
// precharacterization. The combinational frame is compiled once and
// memoized on the handle, so repeat analyses (and every strike source
// across all K cycles within one analysis) share one artifact; the
// frame's sensitization statistics — flop Qs are frame sources drawing
// p=0.5 random words exactly like PIs — are memoized per (vectors,
// seed) the same way.
func AnalyzeCompiledContext(ctx context.Context, cc *engine.CompiledCircuit, lib *charlib.Library, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	c := cc.Circuit()
	if opts.InitState != nil && len(opts.InitState) != len(c.DFFs()) {
		// LogicalPropagate checks this too, but only when flops exist;
		// validating here keeps a bogus InitState from being silently
		// ignored on combinational circuits.
		return nil, fmt.Errorf("seq: initState has %d bits for %d flops", len(opts.InitState), len(c.DFFs()))
	}
	rec := trace.RecorderFrom(ctx)
	endFrame := trace.StartStage(rec, "seq.frame")
	fr, err := CompiledFrame(cc)
	endFrame()
	if err != nil {
		return nil, err
	}
	endSizing := trace.StartStage(rec, "sertopt.sizing")
	cells, err := sertopt.InitialSizing(fr.Comb, lib, opts.POLoad)
	endSizing()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	an, err := aserta.AnalyzeCompiled(fr.CC, cells, aserta.Config{
		Vectors:     opts.Vectors,
		Seed:        opts.Seed,
		POLoad:      opts.POLoad,
		ClockPeriod: opts.ClockPeriod,
		Spans:       rec,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// LogicalPropagate: the multi-cycle fault chase, shared with every
	// other pipeline flow through internal/strike.
	endLogical := trace.StartStage(rec, "strike.logical")
	epf, err := strike.LogicalPropagate(ctx, cc, opts.Cycles, opts.Vectors,
		stats.NewRNG(opts.Seed+faultSeedOffset), opts.InitState, opts.Workers)
	endLogical()
	if err != nil {
		return nil, err
	}

	flops := c.DFFs()
	res := &Result{
		Circuit:     c.Name,
		Cycles:      opts.Cycles,
		Flops:       len(flops),
		Frame:       an,
		FlopReports: make([]FlopReport, len(flops)),
	}
	// LatchingWindow + Reduce: genuine-PO columns count directly, flop
	// columns through the capture window times E_f.
	endReduce := trace.StartStage(rec, "strike.reduce_seq")
	defer endReduce()
	T := opts.ClockPeriod
	sc := strike.ReduceSequential(fr.Comb, an.Flux, an.Wij, T, fr.NumRealPOs, fr.FlopCols, epf)
	for fi, id := range flops {
		res.FlopReports[fi] = FlopReport{
			Name:           c.Gates[id].Name,
			CaptureU:       sc.CaptureU[fi],
			ErrorsPerFault: epf[fi],
		}
	}
	for _, g := range fr.Comb.Gates {
		if g.Type.IsSource() {
			continue
		}
		gr := GateReport{
			Name:     g.Name,
			DirectU:  sc.Direct[g.ID],
			LatchedU: sc.Latched[g.ID],
			GenWidth: an.GenWidth[g.ID],
			Delay:    an.Delays[g.ID],
		}
		gr.U = gr.DirectU + gr.LatchedU
		res.Gates = append(res.Gates, gr)
	}
	res.DirectU = sc.DirectU
	res.LatchedU = sc.LatchedU
	res.U = res.DirectU + res.LatchedU
	res.FIT = serrate.FIT(res.U, T, DefaultFluxPerHour)
	return res, nil
}

// Summary formats a one-line sequential result.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s: %d flops, %d-cycle horizon: U = %.2f (direct %.2f + latched %.2f), FIT = %.3g",
		r.Circuit, r.Flops, r.Cycles, r.U, r.DirectU, r.LatchedU, r.FIT)
}
