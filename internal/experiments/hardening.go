package experiments

import (
	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/harden"
	"repro/internal/sertopt"
	"repro/internal/spice"
)

// HardeningRow compares one protection scheme against the unprotected
// baseline. U is the scheme's unreliability, every row's analyzed at
// the same configuration and clock (the aserta default, 300 ps), and
// UDecrease is 1 − U/baseline U. The ratios compare the scheme's
// metrics with the baseline's; the sertopt row's are the optimizer's
// own (sertopt.Result.Ratios).
type HardeningRow struct {
	Scheme      string
	U           float64
	UDecrease   float64
	AreaRatio   float64
	EnergyRatio float64
	DelayRatio  float64
	Gates       int
	// VoterShare is the fraction of the scheme's unreliability carried
	// by inserted checker/voter gates (strike pipeline per-gate
	// contributions); 0 for schemes that add none.
	VoterShare float64
}

// HardeningComparison quantifies the paper's §1 argument: classical
// TMR buys a large unreliability reduction at ~3x area/energy and
// extra voter delay, while SERTOPT's parameter reassignment trades a
// far smaller overhead for its reduction. Rows: baseline, TMR,
// SERTOPT.
func HardeningComparison(circuit string, lib *charlib.Library, opts sertopt.Options) ([]HardeningRow, error) {
	c, err := gen.ISCAS85(circuit)
	if err != nil {
		return nil, err
	}
	// One handle serves the baseline analysis and the optimization.
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	poLoad := engine.DefaultPOLoad
	acfg := aserta.Config{Vectors: opts.Vectors, Seed: opts.Seed, POLoad: poLoad}

	analyzeSized := func(h *engine.CompiledCircuit) (*aserta.Analysis, sertopt.Metrics, error) {
		cells, err := sertopt.InitialSizing(h.Circuit(), lib, poLoad)
		if err != nil {
			return nil, sertopt.Metrics{}, err
		}
		an, err := aserta.AnalyzeCompiled(h, cells, acfg)
		if err != nil {
			return nil, sertopt.Metrics{}, err
		}
		return an, sertopt.EvaluateMetrics(h, an), nil
	}

	anBase, mBase, err := analyzeSized(cc)
	if err != nil {
		return nil, err
	}
	rows := []HardeningRow{{
		Scheme: "baseline", U: anBase.U, UDecrease: 0,
		AreaRatio: 1, EnergyRatio: 1, DelayRatio: 1, Gates: c.NumGates(),
	}}

	tmr, err := harden.TMR(c)
	if err != nil {
		return nil, err
	}
	// Voter cells are hardened (fastest available drive), standard
	// practice for TMR voters: a naive minimum-size voter would simply
	// relocate the soft spot to the unprotected gate in front of the
	// latch (measurably so in this model — see the harden tests).
	cellsTMR, err := sertopt.InitialSizing(tmr.Circuit, lib, poLoad)
	if err != nil {
		return nil, err
	}
	maxSize := lib.Grid.Sizes[len(lib.Grid.Sizes)-1]
	for _, id := range tmr.VoterGates {
		cell := cellsTMR.Cell(id)
		cell.Params = spice.Nominal(lib.Tech, maxSize)
		if cellsTMR.IDs[id], err = cellsTMR.T.Intern(cell); err != nil {
			return nil, err
		}
	}
	tmrCC, err := engine.Compile(tmr.Circuit)
	if err != nil {
		return nil, err
	}
	anTMR, err := aserta.AnalyzeCompiled(tmrCC, cellsTMR, acfg)
	if err != nil {
		return nil, err
	}
	mTMR := sertopt.EvaluateMetrics(tmrCC, anTMR)
	rows = append(rows, HardeningRow{
		Scheme: "tmr", U: anTMR.U, UDecrease: 1 - anTMR.U/anBase.U,
		AreaRatio:   mTMR.Area / mBase.Area,
		EnergyRatio: mTMR.Energy / mBase.Energy,
		DelayRatio:  mTMR.Delay / mBase.Delay,
		Gates:       tmr.Circuit.NumGates(),
		VoterShare:  tmr.VoterShare(anTMR.Ui),
	})

	// The optimizer analyzes at its own clock (1.2x the baseline
	// critical path); its winner is analyzed again at acfg, so every
	// row's U is taken at one clock.
	res, err := sertopt.OptimizeCompiled(cc, lib, opts)
	if err != nil {
		return nil, err
	}
	anOpt, err := aserta.AnalyzeCompiled(cc, res.Optimized, acfg)
	if err != nil {
		return nil, err
	}
	a, e, d := res.Ratios()
	rows = append(rows, HardeningRow{
		Scheme: "sertopt", U: anOpt.U, UDecrease: 1 - anOpt.U/anBase.U,
		AreaRatio: a, EnergyRatio: e, DelayRatio: d, Gates: c.NumGates(),
	})
	return rows, nil
}
