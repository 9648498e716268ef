package experiments

import (
	"fmt"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/sertopt"
)

// Table1Row mirrors one row of the paper's Table 1.
type Table1Row struct {
	Circuit string
	VDDs    []float64
	Vths    []float64

	AreaRatio   float64
	EnergyRatio float64
	DelayRatio  float64

	// UDecreaseASERTA is the full-statistics ASERTA estimate
	// (Table 1, column 7a).
	UDecreaseASERTA float64
	// UDecreaseASERTA50 re-estimates both circuits with 50 random
	// vectors (column 7b).
	UDecreaseASERTA50 float64
	// UDecreaseGolden does the same with the transistor-level golden
	// simulator (column 7c). NaN-free: HasGolden reports presence —
	// the paper, too, skipped SPICE on the largest circuits.
	UDecreaseGolden float64
	HasGolden       bool

	Evaluations int
}

// Table1Spec describes one circuit's optimization setup, following the
// paper's per-circuit VDD/Vth menus.
type Table1Spec struct {
	Circuit string
	VDDs    []float64
	Vths    []float64
}

// PaperTable1Specs returns the paper's exact Table 1 circuit list and
// voltage menus.
func PaperTable1Specs() []Table1Spec {
	return []Table1Spec{
		{"c432", []float64{0.8, 1.0}, []float64{0.2, 0.3}},
		{"c499", []float64{0.8, 1.0}, []float64{0.2, 0.3}},
		{"c1908", []float64{0.8, 1.0, 1.2}, []float64{0.1, 0.2, 0.3}},
		{"c2670", []float64{0.8, 1.0, 1.2}, []float64{0.1, 0.2, 0.3}},
		{"c3540", []float64{0.8, 1.0}, []float64{0.2, 0.3}},
		{"c5315", []float64{0.8, 1.0, 1.2}, []float64{0.1, 0.2, 0.3}},
		{"c7552", []float64{0.8, 1.0}, []float64{0.2, 0.3}},
	}
}

// Table1Config controls the whole-table run.
type Table1Config struct {
	// Optimizer options (menus are filled per spec).
	Options sertopt.Options
	// GoldenGateLimit caps gates sampled for the golden comparison;
	// circuits with more gates than GoldenCircuitLimit skip golden
	// entirely (the paper: "The last 2 circuits were too big to be
	// simulated by SPICE").
	GoldenGateLimit    int
	GoldenCircuitLimit int
	GoldenVectors      int
}

func (c Table1Config) withDefaults() Table1Config {
	if c.GoldenGateLimit == 0 {
		c.GoldenGateLimit = 40
	}
	if c.GoldenCircuitLimit == 0 {
		c.GoldenCircuitLimit = 1500
	}
	if c.GoldenVectors == 0 {
		c.GoldenVectors = 50
	}
	return c
}

// Table1Run optimizes one circuit and fills its row.
func Table1Run(spec Table1Spec, lib *charlib.Library, cfg Table1Config) (*Table1Row, error) {
	cfg = cfg.withDefaults()
	c, err := gen.ISCAS85(spec.Circuit)
	if err != nil {
		return nil, err
	}
	// One handle serves the optimization and both re-analyses.
	cc, err := engine.Compile(c)
	if err != nil {
		return nil, err
	}
	opts := cfg.Options
	opts.Match.VDDs = spec.VDDs
	opts.Match.Vths = spec.Vths
	res, err := sertopt.OptimizeCompiled(cc, lib, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: optimize %s: %v", spec.Circuit, err)
	}
	row := &Table1Row{
		Circuit:         spec.Circuit,
		VDDs:            spec.VDDs,
		Vths:            spec.Vths,
		UDecreaseASERTA: res.UDecrease(),
		Evaluations:     res.Evaluations,
	}
	row.AreaRatio, row.EnergyRatio, row.DelayRatio = res.Ratios()

	// Column 7b: both circuits re-analyzed with 50 random vectors.
	a50 := func(cells charlib.Assignment) (float64, error) {
		an, err := aserta.AnalyzeCompiled(cc, cells, aserta.Config{
			Vectors: 50, Seed: opts.Seed + 50, POLoad: engine.DefaultPOLoad,
		})
		if err != nil {
			return 0, err
		}
		return an.U, nil
	}
	uBase50, err := a50(res.Baseline)
	if err != nil {
		return nil, err
	}
	uOpt50, err := a50(res.Optimized)
	if err != nil {
		return nil, err
	}
	if uBase50 > 0 {
		row.UDecreaseASERTA50 = 1 - uOpt50/uBase50
	}

	// Column 7c: golden transistor-level comparison on a bounded gate
	// sample; skipped for circuits beyond the budget, as in the paper.
	if c.NumGates() <= cfg.GoldenCircuitLimit {
		gates := GatesWithinLevels(c, 5)
		if len(gates) > cfg.GoldenGateLimit {
			gates = gates[:cfg.GoldenGateLimit]
		}
		gcfg := GoldenConfig{
			Vectors: cfg.GoldenVectors,
			Seed:    opts.Seed + 99,
			POLoad:  engine.DefaultPOLoad,
			Gates:   gates,
		}
		gBase, err := GoldenUnreliability(lib.Tech, c, res.Baseline, gcfg)
		if err != nil {
			return nil, err
		}
		gOpt, err := GoldenUnreliability(lib.Tech, c, res.Optimized, gcfg)
		if err != nil {
			return nil, err
		}
		var ub, uo float64
		for _, gid := range gates {
			ub += gBase.Ui[gid]
			uo += gOpt.Ui[gid]
		}
		if ub > 0 {
			row.UDecreaseGolden = 1 - uo/ub
			row.HasGolden = true
		}
	}
	return row, nil
}
