// Package ser is the public API of this reproduction of "Soft-Error
// Tolerance Analysis and Optimization of Nanometer Circuits" (Dhillon,
// Diril, Chatterjee — DATE 2005).
//
// It wraps the two tools the paper presents —
//
//   - ASERTA: fast lookup-table-driven soft-error tolerance analysis
//     ("unreliability" U = expected total strike-induced glitch width
//     reaching the latches, Eqs. 1–4), and
//   - SERTOPT: delay-assignment-variation optimization of gate sizes,
//     channel lengths, supply voltages and threshold voltages under a
//     path-delay constraint (nullspace of the topology matrix, Eq. 5
//     cost)
//
// — together with every substrate they need: a 70 nm alpha-power-law
// device model, a transistor-level transient simulator used for both
// table characterization and golden-reference validation, ISCAS-85
// netlist parsing and profile-matched synthetic benchmarks, logic
// simulation, and the experiment drivers regenerating each figure and
// table of the paper.
//
// Quickstart:
//
//	sys := ser.NewSystem(ser.CoarseCharacterization)
//	c, _ := ser.Benchmark("c432")
//	rep, _ := sys.Analyze(c, ser.AnalysisOptions{})
//	fmt.Printf("U = %.1f, softest gate %s\n", rep.U, rep.Softest(1)[0].Name)
//
// Analyzing one netlist repeatedly? Compile it once — the handle
// carries every netlist-derived artifact (topological orders, cone
// arenas, memoized sensitization statistics) and is safe to share
// across concurrent Analyze/AnalyzeSequential/Optimize calls:
//
//	h, _ := ser.Compile(c)
//	rep, _ = sys.AnalyzeCompiledContext(ctx, h, ser.AnalysisOptions{})
//	opt, _ := sys.OptimizeCompiledContext(ctx, h, ser.OptimizeOptions{})
package ser

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/aserta"
	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/harden"
	"repro/internal/seq"
	"repro/internal/sertopt"
	"repro/internal/strike"
	"repro/internal/trace"
)

// Circuit is the public alias for the gate-level netlist type.
type Circuit = ckt.Circuit

// Compiled is a reusable analysis handle: the circuit plus every
// artifact derivable from the netlist alone (topological orders,
// levelization, PO/flop column maps and — lazily, keyed by vector
// count and seed — the sensitization statistics).
// Compile once, then run any number of Analyze/AnalyzeSequential/
// Optimize calls against the handle, concurrently if desired: the
// expensive netlist-only precomputation is paid once and shared, and
// results are bit-identical to the compile-on-the-fly entry points.
//
// A Compiled handle is immutable and safe for concurrent use. Do not
// mutate the underlying Circuit after compiling it.
type Compiled struct {
	c  *Circuit
	cc *engine.CompiledCircuit
}

// Compile builds the reusable analysis handle for a circuit. It fails
// on structurally invalid netlists, so a handle is always analyzable.
func Compile(c *Circuit) (*Compiled, error) {
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	return &Compiled{c: c, cc: cc}, nil
}

// Circuit returns the underlying netlist (read-only).
func (h *Compiled) Circuit() *Circuit { return h.c }

// TMR returns a compiled handle for the triple-modular-redundancy
// hardened version of the circuit (shared primary inputs, triplicated
// logic, a 2-level AND-OR majority voter per primary output) — the
// classical defense the paper argues against, kept as the comparison
// baseline for SERTOPT. The input handle is not modified.
func TMR(h *Compiled) (*Compiled, error) {
	res, err := harden.TMR(h.c)
	if err != nil {
		return nil, err
	}
	return Compile(res.Circuit)
}

// CharacterizationLevel selects how densely the cell library is
// characterized (transient simulations per gate class).
type CharacterizationLevel int

const (
	// DefaultCharacterization uses the paper-scale grid (sizes 1–8,
	// five channel lengths, three VDDs, three Vths, four loads).
	DefaultCharacterization CharacterizationLevel = iota
	// CoarseCharacterization uses a small grid for quick runs and CI.
	CoarseCharacterization
)

// System bundles a technology and a characterized cell library.
type System struct {
	Tech *devmodel.Tech
	Lib  *charlib.Library
}

// NewSystem creates a 70 nm system with a lazily characterized
// library.
func NewSystem(level CharacterizationLevel) *System {
	tech := devmodel.Tech70nm()
	grid := charlib.DefaultGrid()
	if level == CoarseCharacterization {
		grid = charlib.CoarseGrid()
	}
	return &System{Tech: tech, Lib: charlib.NewLibrary(tech, grid)}
}

// NewSystemWithCharges creates a system whose glitch-generation tables
// carry an injected-charge axis (the paper's stated future work),
// enabling Report.SpectrumU. charges lists the characterization points
// in coulombs, e.g. []float64{4e-15, 8e-15, 16e-15, 32e-15}.
func NewSystemWithCharges(level CharacterizationLevel, charges []float64) *System {
	s := NewSystem(level)
	grid := s.Lib.Grid
	grid.Charges = charges
	s.Lib = charlib.NewLibrary(s.Tech, grid)
	return s
}

// ChargeWeight pairs an injected charge with its flux weight in a
// strike spectrum.
type ChargeWeight = aserta.ChargeWeight

// ExponentialSpectrum discretizes the standard exponential
// charge-deposition spectrum: n points spanning [qMin, qMax]
// geometrically with weights ∝ exp(−Q/Q0), normalized to 1.
func ExponentialSpectrum(qMin, qMax, q0 float64, n int) []ChargeWeight {
	return aserta.ExponentialSpectrum(qMin, qMax, q0, n)
}

// SaveLibrary caches the characterized tables (JSON) so later runs
// skip re-characterization. The parent directory is created if needed
// and the write is atomic (temp file + rename), so a crashed or
// interrupted run can never leave a truncated cache that poisons the
// next run.
func (s *System) SaveLibrary(path string) error {
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// CreateTemp uses 0600; restore the permissions os.Create would
	// have given the final file so other users can still read a cache
	// written by a privileged service.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.Lib.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadLibrary restores tables cached by SaveLibrary.
func (s *System) LoadLibrary(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lib, err := charlib.Load(f, s.Tech)
	if err != nil {
		return err
	}
	s.Lib = lib
	return nil
}

// Benchmark returns a built-in benchmark circuit: an ISCAS-85 member
// ("c17" ... "c7552", combinational) or an ISCAS-89 member ("s27" ...
// "s38417", sequential). The genuine c17 and s27 netlists are included
// verbatim; the larger suite members are profile-matched synthetic
// circuits (see docs/reproduction.md for the substitution rationale).
func Benchmark(name string) (*Circuit, error) {
	if len(name) > 0 && name[0] == 's' {
		return gen.ISCAS89(name)
	}
	return gen.ISCAS85(name)
}

// BenchmarkNames lists available benchmark circuits: the combinational
// ISCAS-85 suite followed by the sequential ISCAS-89 suite.
func BenchmarkNames() []string {
	return append(gen.Names(), gen.SeqNames()...)
}

// CanonicalContent returns the canonical structural form of a circuit
// and its content address, canonicalizing once — the per-request path
// of a serving tier. The canonical form has inputs and outputs in
// sorted-name order, gates in name-tie-broken topological order and
// operand order preserved, so netlists differing only in whitespace,
// comments or line order canonicalize to byte-identical circuits — and
// therefore to bit-identical analysis results. The content address is
// "sha256:" plus the hex SHA-256 of the canonical .bench bytes, the key
// a serving tier caches compiled circuits under.
func CanonicalContent(c *Circuit) (*Circuit, string, error) { return bench.CanonicalContent(c) }

// CompiledCacheStats snapshots a CompiledCache's counters.
type CompiledCacheStats = engine.CacheStats

// CompiledCache is a bounded content-addressed cache of compiled
// circuits for a serving tier: keys are content addresses
// (CanonicalContent) or stable names, values are Compiled handles,
// eviction is LRU weighted by gate count, and concurrent misses for
// one key coalesce on a single build. Safe for concurrent use.
type CompiledCache struct {
	cache *engine.Cache
}

// NewCompiledCache creates a cache bounded by a total gate-record
// budget across all cached circuits (<= 0 selects 500,000 — roughly a
// hundred ISCAS-scale circuits).
func NewCompiledCache(budgetGates int64) *CompiledCache {
	return &CompiledCache{cache: engine.NewCache(budgetGates)}
}

// ArtifactCacheStats snapshots the persistent artifact store's
// counters (hits, misses, saves, corruption errors, and the artifact
// bytes read on hits, which keep the name BytesMapped).
type ArtifactCacheStats = engine.ArtifactStats

// NewCompiledCacheWithArtifacts creates a compiled-circuit cache
// backed by a persistent artifact directory: in-memory misses first
// try the on-disk compiled artifact for the key, and successful builds
// are written back. A process restarting over a warm directory serves
// its first request for a known circuit without recompiling. Corrupt
// or foreign files are detected (checksummed, key-echoed), counted,
// removed and recompiled — never served.
func NewCompiledCacheWithArtifacts(budgetGates int64, dir string) (*CompiledCache, error) {
	store, err := engine.NewArtifactStore(dir)
	if err != nil {
		return nil, err
	}
	return &CompiledCache{cache: engine.NewCacheWithArtifacts(budgetGates, store)}, nil
}

// ArtifactsEnabled reports whether this cache is backed by a
// persistent artifact directory.
func (cc *CompiledCache) ArtifactsEnabled() bool { return cc.cache.Artifacts() != nil }

// ArtifactStats snapshots the persistent artifact store's counters;
// the zero value is returned when the cache has no artifact directory.
func (cc *CompiledCache) ArtifactStats() ArtifactCacheStats {
	if s := cc.cache.Artifacts(); s != nil {
		return s.Stats()
	}
	return ArtifactCacheStats{}
}

// Get returns the compiled handle for key, building (and compiling)
// the circuit at most once per cached lifetime: concurrent callers for
// one missing key block on a single build, and build errors are
// returned without being cached.
func (cc *CompiledCache) Get(key string, build func() (*Circuit, error)) (*Compiled, error) {
	h, err := cc.cache.Get(key, func() (*engine.CompiledCircuit, error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		return engine.Compile(c)
	})
	if err != nil {
		return nil, err
	}
	return &Compiled{c: h.Circuit(), cc: h}, nil
}

// Stats snapshots the hit/miss/eviction counters.
func (cc *CompiledCache) Stats() CompiledCacheStats { return cc.cache.Stats() }

// ParseBench reads an ISCAS-85/89 ".bench" netlist (DFF lines declare
// flip-flops; the result is a sequential circuit when any are
// present). It uses the streaming single-pass parser, which emits the
// circuit's flat arenas directly — bit-identical to the legacy
// object-graph parser (same gate IDs, same errors, same content
// address) at a fraction of the allocations, which is what makes
// million-gate netlists loadable.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.ParseStream(r, name) }

// LoadBenchFile reads a ".bench" netlist from disk.
func LoadBenchFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.ParseStream(f, trimExt(path))
}

// WriteBench emits a circuit in ".bench" format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

func trimExt(p string) string {
	base := p
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

// AnalysisOptions tune an ASERTA run. The report's Raw() analysis
// keeps the nGates·nPOs W_ij table; the nGates·nPOs·K sample-width
// table WS_ijk is built only when something asks for it
// (Raw().WSTable(), SpectrumU, an incremental RecomputeU or SourcesU).
type AnalysisOptions struct {
	// Vectors is the random-vector count for sensitization statistics
	// (default 10,000, as in the paper).
	Vectors int
	Seed    uint64
	// POLoad is the latch capacitance at each primary output (F);
	// zero or a negative load selects the default (2 fF), and a NaN or
	// infinite one is refused.
	POLoad float64
	// Cells is the per-gate cell assignment, indexed by gate ID, with
	// every logic gate's cell of the gate's own type and fan-in;
	// primary inputs' entries are ignored. nil selects the speed-driven
	// baseline sizing.
	Cells []charlib.Cell
}

// GateReport is one gate's analysis summary.
type GateReport struct {
	Name string
	// U is the gate's unreliability contribution (Eq. 3).
	U float64
	// GenWidth is the strike-induced glitch width at the gate (s).
	GenWidth float64
	// Delay is the gate's propagation delay under its load (s).
	Delay float64
}

// Report is the public ASERTA result.
type Report struct {
	// U is the circuit unreliability (Eq. 4).
	U float64
	// Gates lists per-gate results in netlist order.
	Gates []GateReport

	analysis *aserta.Analysis
}

// Softest returns the n highest-contribution gates, most unreliable
// first.
func (r *Report) Softest(n int) []GateReport {
	return softest(r.Gates, n, func(g GateReport) float64 { return g.U })
}

// softest returns the n gates with the highest u, most unreliable
// first; ties keep netlist order.
func softest[G any](gates []G, n int, u func(G) float64) []G {
	out := append([]G(nil), gates...)
	sort.SliceStable(out, func(i, j int) bool { return u(out[i]) > u(out[j]) })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// SusceptibilityEntry is one ranked per-gate susceptibility
// contribution: the gate's absolute Eq. 3 contribution U, its Share of
// the circuit total (0 when the total is not positive), and the
// cumulative share CumShare through its rank ("the top N gates carry
// CumShare of the circuit's susceptibility") — the selective-hardening
// shopping list.
type SusceptibilityEntry = strike.Contribution

// rankGates ranks gates by their U contributions through the strike
// pipeline's Rank; nameU reads one gate's name and contribution.
func rankGates[G any](gates []G, total float64, nameU func(G) (string, float64)) []SusceptibilityEntry {
	names := make([]string, len(gates))
	u := make([]float64, len(gates))
	for i, g := range gates {
		names[i], u[i] = nameU(g)
	}
	return strike.Rank(names, u, total)
}

// Susceptibility returns the ranked per-gate contributions of the
// analysis — every gate, most susceptible first, with share and
// cumulative-share columns. The ranking is deterministic: ties keep
// netlist order.
func (r *Report) Susceptibility() []SusceptibilityEntry {
	return rankGates(r.Gates, r.U, func(g GateReport) (string, float64) { return g.Name, g.U })
}

// Raw exposes the underlying analysis for advanced use (sample tables,
// sensitization probabilities).
func (r *Report) Raw() *aserta.Analysis { return r.analysis }

// SpectrumU re-evaluates the circuit unreliability under a charge
// spectrum instead of the fixed 16 fC strike. The system must have
// been built with NewSystemWithCharges. It returns the weighted total
// and the per-charge unreliability values.
func (r *Report) SpectrumU(sys *System, spectrum []ChargeWeight) (float64, []float64, error) {
	return r.analysis.SpectrumU(sys.Lib, spectrum)
}

// Analyze runs ASERTA on the circuit with a speed-sized baseline
// assignment (or opts.Cells when provided), compiling the circuit on
// the fly. Callers analyzing one netlist repeatedly should Compile
// once and use AnalyzeCompiledContext.
func (s *System) Analyze(c *Circuit, opts AnalysisOptions) (*Report, error) {
	h, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return s.AnalyzeCompiledContext(context.Background(), h, opts)
}

// AnalyzeCompiledContext runs ASERTA against a compiled handle: the
// netlist-derived precomputation (orders, cones, the sensitization
// simulation at the requested vectors/seed) is served from the handle,
// so warm analyses skip it entirely. Results are bit-identical to
// Analyze.
//
// Cancellation is cooperative: ctx is checked before each pipeline
// stage (characterization — per class — baseline sizing, and the
// analysis itself). A stage already running is not interrupted, so
// cancellation latency is bounded by the longest single stage, and a
// cancelled call leaves the shared library in a fully consistent
// state for concurrent callers.
func (s *System) AnalyzeCompiledContext(ctx context.Context, h *Compiled, opts AnalysisOptions) (*Report, error) {
	c := h.c
	if c.Sequential() {
		return nil, fmt.Errorf("ser: circuit %q has flip-flops; use AnalyzeSequential", c.Name)
	}
	if err := checkPOLoad(opts.POLoad); err != nil {
		return nil, err
	}
	p := engine.Params{POLoad: opts.POLoad}
	p.Normalize()
	opts.POLoad = p.POLoad
	rec := trace.RecorderFrom(ctx)
	endChar := trace.StartStage(rec, "charlib.precharacterize")
	err := s.Lib.PrecharacterizeContext(ctx, charlib.CircuitClasses(c))
	endChar()
	if err != nil {
		return nil, err
	}
	var cells charlib.Assignment
	if opts.Cells == nil {
		endSizing := trace.StartStage(rec, "sertopt.sizing")
		cells, err = sertopt.InitialSizing(c, s.Lib, opts.POLoad)
		endSizing()
	} else {
		cells, err = charlib.NewTable(s.Lib).InternAll(c, opts.Cells)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	an, err := aserta.AnalyzeCompiled(h.cc, cells, aserta.Config{
		Vectors: opts.Vectors,
		Seed:    opts.Seed,
		POLoad:  opts.POLoad,
		Spans:   rec,
	})
	if err != nil {
		return nil, err
	}
	return reportOf(an), nil
}

// checkPOLoad refuses a NaN or infinite latch load, which no analysis
// can use. A load <= 0 is no error: it selects the default.
func checkPOLoad(load float64) error {
	if math.IsNaN(load) || math.IsInf(load, 0) {
		return fmt.Errorf("ser: POLoad %g is not a finite capacitance", load)
	}
	return nil
}

// reportOf shapes an analysis into its report: every logic gate in
// netlist order.
func reportOf(an *aserta.Analysis) *Report {
	rep := &Report{U: an.U, analysis: an}
	for _, g := range an.Circuit.Gates {
		if g.Type == ckt.Input {
			continue
		}
		rep.Gates = append(rep.Gates, GateReport{
			Name:     g.Name,
			U:        an.Ui[g.ID],
			GenWidth: an.GenWidth[g.ID],
			Delay:    an.Delays[g.ID],
		})
	}
	return rep
}

// SequentialOptions tune a sequential (ISCAS-89) analysis.
type SequentialOptions struct {
	// Cycles is the multi-cycle fault-propagation horizon (default 4):
	// a strike captured into a flop is chased through this many frames.
	Cycles int
	// Vectors is the random-vector count (default 10,000).
	Vectors int
	Seed    uint64
	// POLoad is the latch capacitance at every frame output — genuine
	// POs and flop D pins alike (default 2 fF, which zero or a negative
	// load selects; a NaN or infinite one is refused).
	POLoad float64
	// ClockPeriod is the Eq. 3 latching-window clock (default 300 ps).
	ClockPeriod float64
	// InitState is the flop reset state in Circuit.DFFs() order; nil
	// means all zeros.
	InitState []bool
}

// SequentialGateReport is one gate's sequential summary.
type SequentialGateReport = seq.GateReport

// SequentialFlopReport is one flip-flop's summary.
type SequentialFlopReport = seq.FlopReport

// SequentialReport is the sequential analysis result.
type SequentialReport struct {
	// U is the per-cycle circuit unreliability (ps units); DirectU
	// counts strike glitches latched at POs in the strike cycle,
	// LatchedU those captured into flops and re-emitted later.
	U, DirectU, LatchedU float64
	// FIT is the whole-circuit soft-error rate.
	FIT float64
	// Cycles and Flops echo the analysis shape.
	Cycles, Flops int
	// Gates lists per-gate results in netlist order; FlopReports per-flop
	// capture pressure and fault visibility.
	Gates       []SequentialGateReport
	FlopReports []SequentialFlopReport

	raw *seq.Result
}

// Softest returns the n highest-contribution gates, most unreliable
// first.
func (r *SequentialReport) Softest(n int) []SequentialGateReport {
	return softest(r.Gates, n, func(g SequentialGateReport) float64 { return g.U })
}

// Raw exposes the underlying seq result (frame analysis, flop
// columns).
func (r *SequentialReport) Raw() *seq.Result { return r.raw }

// Susceptibility returns the ranked per-gate contributions of the
// sequential analysis (direct + latched U per gate), most susceptible
// first, with share and cumulative-share columns.
func (r *SequentialReport) Susceptibility() []SusceptibilityEntry {
	return rankGates(r.Gates, r.U, func(g SequentialGateReport) (string, float64) { return g.Name, g.U })
}

// AnalyzeSequential runs the multi-cycle sequential SER analysis on a
// circuit with flip-flops. Combinational circuits are legal inputs:
// the result then has no latched component and U equals the
// combinational Eq. 4 unreliability.
func (s *System) AnalyzeSequential(c *Circuit, opts SequentialOptions) (*SequentialReport, error) {
	h, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return s.AnalyzeSequentialCompiledContext(context.Background(), h, opts)
}

// AnalyzeSequentialCompiledContext runs the sequential analysis
// against a compiled handle: the combinational frame is built and
// compiled once per handle and its sensitization statistics are
// memoized per (vectors, seed), so warm analyses skip both. Results
// are bit-identical to AnalyzeSequential. Cancellation is cooperative,
// at the characterization boundary and between analysis stages.
func (s *System) AnalyzeSequentialCompiledContext(ctx context.Context, h *Compiled, opts SequentialOptions) (*SequentialReport, error) {
	c := h.c
	if err := checkPOLoad(opts.POLoad); err != nil {
		return nil, err
	}
	endChar := trace.StartStage(trace.RecorderFrom(ctx), "charlib.precharacterize")
	err := s.Lib.PrecharacterizeContext(ctx, charlib.CircuitClasses(c))
	endChar()
	if err != nil {
		return nil, err
	}
	res, err := seq.AnalyzeCompiledContext(ctx, h.cc, s.Lib, seq.Options{
		Cycles:      opts.Cycles,
		Vectors:     opts.Vectors,
		Seed:        opts.Seed,
		POLoad:      opts.POLoad,
		ClockPeriod: opts.ClockPeriod,
		InitState:   opts.InitState,
	})
	if err != nil {
		return nil, err
	}
	return &SequentialReport{
		U:           res.U,
		DirectU:     res.DirectU,
		LatchedU:    res.LatchedU,
		FIT:         res.FIT,
		Cycles:      res.Cycles,
		Flops:       res.Flops,
		Gates:       res.Gates,
		FlopReports: res.FlopReports,
		raw:         res,
	}, nil
}

// OptimizeOptions tune a SERTOPT run.
type OptimizeOptions struct {
	// VDDs and Vths are the designer's voltage menus (paper Table 1).
	VDDs []float64
	Vths []float64
	// Iterations, MaxBasis and Vectors trade quality for runtime.
	Iterations int
	MaxBasis   int
	Vectors    int
	Seed       uint64
	// Method is "sqp" (default) or "anneal".
	Method string
	// Weights override the Eq. 5 cost weights.
	Weights *sertopt.Weights
}

// OptimizeResult is the public SERTOPT outcome.
type OptimizeResult struct {
	// UDecrease is the fractional unreliability reduction (Table 1).
	UDecrease float64
	// AreaRatio, EnergyRatio, DelayRatio compare optimized/baseline.
	AreaRatio, EnergyRatio, DelayRatio float64
	// BaselineU and OptimizedU are the absolute unreliability values.
	BaselineU, OptimizedU float64

	raw *sertopt.Result
}

// Raw exposes the full optimizer result (assignments, history).
func (r *OptimizeResult) Raw() *sertopt.Result { return r.raw }

// Susceptibility returns the ranked per-gate contributions of the
// baseline and optimized assignments, for before/after comparison of
// where the optimizer moved the soft spots.
func (r *OptimizeResult) Susceptibility() (baseline, optimized []SusceptibilityEntry) {
	return reportOf(r.raw.BaseAnalysis).Susceptibility(), reportOf(r.raw.OptAnalysis).Susceptibility()
}

// Optimize runs SERTOPT on the circuit, compiling it on the fly.
// Callers holding a compiled handle should use OptimizeCompiledContext.
func (s *System) Optimize(c *Circuit, opts OptimizeOptions) (*OptimizeResult, error) {
	h, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return s.OptimizeCompiledContext(context.Background(), h, opts)
}

// OptimizeCompiledContext runs SERTOPT against a compiled handle,
// sharing the handle's memoized sensitization with every other
// analysis of the same netlist. Results are bit-identical to Optimize.
// Cancellation is cooperative, at the characterization boundary (the
// dominant cost on a cold library) and before the optimizer starts.
func (s *System) OptimizeCompiledContext(ctx context.Context, h *Compiled, opts OptimizeOptions) (*OptimizeResult, error) {
	c := h.c
	if c.Sequential() {
		return nil, fmt.Errorf("ser: circuit %q has flip-flops; SERTOPT optimizes combinational logic only", c.Name)
	}
	rec := trace.RecorderFrom(ctx)
	endChar := trace.StartStage(rec, "charlib.precharacterize")
	err := s.Lib.PrecharacterizeContext(ctx, charlib.CircuitClasses(c))
	endChar()
	if err != nil {
		return nil, err
	}
	if len(opts.VDDs) == 0 {
		opts.VDDs = []float64{0.8, 1.0}
	}
	if len(opts.Vths) == 0 {
		opts.Vths = []float64{0.2, 0.3}
	}
	sopts := sertopt.Options{
		Match:      sertopt.MatchConfig{VDDs: opts.VDDs, Vths: opts.Vths},
		Iterations: opts.Iterations,
		MaxBasis:   opts.MaxBasis,
		Vectors:    opts.Vectors,
		Seed:       opts.Seed,
		Method:     opts.Method,
	}
	if opts.Weights != nil {
		sopts.Weights = *opts.Weights
	}
	// One span for the whole optimizer: its cost loop re-enters the
	// pipeline thousands of times through SourcesU and RecomputeU,
	// which are far too hot to instrument per call.
	endOpt := trace.StartStage(rec, "sertopt.optimize")
	res, err := sertopt.OptimizeCompiled(h.cc, s.Lib, sopts)
	endOpt()
	if err != nil {
		return nil, err
	}
	out := &OptimizeResult{
		UDecrease:  res.UDecrease(),
		BaselineU:  res.BaseAnalysis.U,
		OptimizedU: res.OptAnalysis.U,
		raw:        res,
	}
	out.AreaRatio, out.EnergyRatio, out.DelayRatio = res.Ratios()
	return out, nil
}

// Characterizations reports how many cell-class characterizations the
// system's library has executed so far. Concurrent requests for one
// class coalesce (singleflight) and count once; a serving tier exports
// the value as its cache-miss counter.
func (s *System) Characterizations() int64 { return s.Lib.Characterizations() }

// Summary formats a one-line circuit description.
func Summary(c *Circuit) string {
	s := c.Summary()
	if s.DFFs > 0 {
		return fmt.Sprintf("%s: %d PIs, %d POs, %d flops, %d gates, %d edges, depth %d",
			s.Name, s.PIs, s.POs, s.DFFs, s.Gates-s.DFFs, s.Edges, s.Levels)
	}
	return fmt.Sprintf("%s: %d PIs, %d POs, %d gates, %d edges, depth %d",
		s.Name, s.PIs, s.POs, s.Gates, s.Edges, s.Levels)
}
