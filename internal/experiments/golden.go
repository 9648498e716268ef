// Package experiments regenerates every figure and table of the
// paper's evaluation: Fig. 1 (glitch generation characteristics),
// Fig. 2 (glitch propagation characteristics), Fig. 3 (ASERTA vs
// golden-simulator unreliability correlation on c432) and Table 1
// (SERTOPT optimization results across ISCAS-85). The golden reference
// is the internal/spice transient simulator, standing in for the
// paper's HSPICE runs (see docs/reproduction.md).
package experiments

import (
	"fmt"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/par"
	"repro/internal/spice"
	"repro/internal/stats"
)

// GoldenConfig controls transistor-level strike simulation.
type GoldenConfig struct {
	// Vectors is the number of random input vectors (the paper used 50).
	Vectors int
	// Seed drives vector generation.
	Seed uint64
	// QInj is the injected charge magnitude (C).
	QInj float64
	// Window and Dt are the transient window and step.
	Window, Dt float64
	// POLoad is the latch load at primary outputs.
	POLoad float64
	// Gates restricts injection to the given gate IDs (nil = every
	// logic gate). Fig. 3 uses gates within five levels of the POs.
	Gates []int
}

func (g GoldenConfig) withDefaults() GoldenConfig {
	if g.Vectors <= 0 {
		g.Vectors = 50
	}
	if g.QInj == 0 {
		g.QInj = 16e-15
	}
	if g.Window == 0 {
		g.Window = 1e-9
	}
	if g.Dt == 0 {
		g.Dt = 1e-12
	}
	if g.POLoad == 0 {
		g.POLoad = 2e-15
	}
	return g
}

// GoldenResult carries per-gate golden unreliability estimates.
type GoldenResult struct {
	// Ui[gateID] is Z_i, the cell's Eq. 3 flux weight
	// (charlib.Cell.FluxWeight, as in aserta.Analysis.Ui), times the
	// mean total PO glitch width in ps.
	Ui []float64
	// MeanPOWidth[gateID] is the raw mean total glitch width (s) at
	// the POs per strike.
	MeanPOWidth []float64
	// Runs counts transient simulations performed.
	Runs int
}

// GoldenUnreliability measures per-gate unreliability by brute-force
// transistor-level simulation: for each random vector and each target
// gate, deposit the strike charge at the gate output (polarity against
// the node's logic value, as in §3) and integrate the glitch widths
// observed at every primary output. This is the reproduction of the
// paper's "In SPICE, the unreliability was computed by applying 50
// random input vectors, injecting charge at every gate output i and
// using the width of the glitch at primary output j as Wij in
// Equation 3."
func GoldenUnreliability(tech *devmodel.Tech, c *ckt.Circuit, cells charlib.Assignment, cfg GoldenConfig) (*GoldenResult, error) {
	cfg = cfg.withDefaults()
	params := make([]spice.Params, len(c.Gates))
	for id := range params {
		params[id] = cells.Cell(id).Params
	}
	targets := cfg.Gates
	if targets == nil {
		for _, g := range c.Gates {
			if g.Type != ckt.Input {
				targets = append(targets, g.ID)
			}
		}
	}
	res := &GoldenResult{
		Ui:          make([]float64, len(c.Gates)),
		MeanPOWidth: make([]float64, len(c.Gates)),
	}
	pos := c.Outputs()

	// Draw every vector's input bits up front so the RNG stream is
	// consumed in vector order regardless of scheduling.
	rng := stats.NewRNG(cfg.Seed)
	vecBits := make([][]bool, cfg.Vectors)
	for v := range vecBits {
		bits := make([]bool, len(c.Inputs()))
		for i := range bits {
			bits[i] = rng.Bool()
		}
		vecBits[v] = bits
	}
	// Activity cones depend only on the netlist; share one set across
	// vectors and workers (read-only after this point).
	cones := make([][]bool, len(targets))
	{
		sim, err := spice.FromCircuit(tech, c, params, cfg.POLoad)
		if err != nil {
			return nil, err
		}
		for ti, gid := range targets {
			cones[ti] = sim.ActiveConeOf(c, gid)
		}
	}

	// Vectors are independent transient experiments: fan them out, one
	// simulator per vector (as the serial loop already built), then
	// reduce the per-vector totals in vector order so the accumulated
	// float sums match the serial evaluation exactly.
	perVec := make([][]float64, cfg.Vectors)
	errs := make([]error, cfg.Vectors)
	par.For(cfg.Vectors, 0, func(v int) {
		sim, err := spice.FromCircuit(tech, c, params, cfg.POLoad)
		if err != nil {
			errs[v] = err
			return
		}
		sim.SetInputsLogic(vecBits[v], tech.VDDnom)
		sim.Settle()
		snap := sim.Snapshot()

		probes := make([]int, len(pos))
		for k, po := range pos {
			probes[k] = sim.GateNode(po)
		}
		totals := make([]float64, len(targets))
		for ti, gid := range targets {
			sim.Restore(snap)
			sim.ClearInjections()
			node := sim.GateNode(gid)
			q := cfg.QInj
			if snap[node] > params[gid].VDD/2 {
				q = -q // strike removes charge from a high node
			}
			sim.AddInjection(&spice.Injection{Node: node, Q: q, T0: 20e-12})
			waves := sim.RunActive(cfg.Window, cfg.Dt, probes, cones[ti])
			total := 0.0
			for k, po := range pos {
				total += spice.GlitchWidth(waves[k], cfg.Dt, sim.GateVDD(po))
			}
			totals[ti] = total
		}
		perVec[v] = totals
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for v := 0; v < cfg.Vectors; v++ {
		for ti, gid := range targets {
			res.MeanPOWidth[gid] += perVec[v][ti]
		}
		res.Runs += len(targets)
	}
	inv := 1.0 / float64(cfg.Vectors)
	for _, gid := range targets {
		res.MeanPOWidth[gid] *= inv
		res.Ui[gid] = cells.Cell(gid).FluxWeight() * res.MeanPOWidth[gid] / 1e-12
	}
	return res, nil
}

// GatesWithinLevels returns the logic gates at most depth levels from
// any primary output (Fig. 3 plots "only the nodes that were at most
// five levels deep from the POs").
func GatesWithinLevels(c *ckt.Circuit, depth int) []int {
	d := c.DepthFromPO()
	var out []int
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		if d[g.ID] >= 0 && d[g.ID] <= depth {
			out = append(out, g.ID)
		}
	}
	return out
}

// ErrGoldenTooLarge is returned by convenience wrappers when a circuit
// exceeds a practical golden-simulation budget.
var ErrGoldenTooLarge = fmt.Errorf("experiments: circuit too large for golden simulation (paper skipped SPICE on c5315/c7552 for the same reason)")
