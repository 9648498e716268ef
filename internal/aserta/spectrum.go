package aserta

import (
	"fmt"
	"math"

	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/lut"
	"repro/internal/strike"
)

// ChargeWeight pairs an injected charge (C) with its relative flux
// weight in a strike spectrum.
type ChargeWeight struct {
	Q      float64
	Weight float64
}

// ExponentialSpectrum builds a discretized exponential charge spectrum
// — the standard first-order model for alpha/neutron-induced charge
// deposition: weights ∝ exp(−Q/Q0), sampled at the n charges spanning
// [qMin, qMax] geometrically.
func ExponentialSpectrum(qMin, qMax, q0 float64, n int) []ChargeWeight {
	if n < 2 {
		n = 2
	}
	ratio := math.Pow(qMax/qMin, 1/float64(n-1))
	out := make([]ChargeWeight, 0, n)
	q := qMin
	total := 0.0
	for i := 0; i < n; i++ {
		w := math.Exp(-q / q0)
		out = append(out, ChargeWeight{Q: q, Weight: w})
		total += w
		q *= ratio
	}
	for i := range out {
		out[i].Weight /= total
	}
	return out
}

// SpectrumU recomputes circuit unreliability under a charge spectrum,
// implementing the paper's stated future work ("look-up tables for
// different amounts of injected charge"). The §3.2 sample-width tables
// WS depend only on the netlist and cell assignment — not on the
// strike charge — so each charge point costs a single table lookup per
// (gate, PO) pair: the generated width w_i(q) comes from the library's
// charge-axis table and is pushed through the analysis' WSTable (built
// on first use) by linear interpolation (step iv), then Eqs. 3–4 are
// re-summed.
//
// The returned total is Σ_q weight_q · U(q); perCharge holds each U(q).
func (a *Analysis) SpectrumU(lib *charlib.Library, spectrum []ChargeWeight) (total float64, perCharge []float64, err error) {
	if len(spectrum) == 0 {
		return 0, nil, fmt.Errorf("aserta: empty charge spectrum")
	}
	if !lib.HasChargeAxis() {
		return 0, nil, fmt.Errorf("aserta: library lacks a charge axis (set charlib.Grid.Charges)")
	}
	if a.delta == nil {
		return 0, nil, fmt.Errorf("aserta: analysis has no WS tables (run AnalyzeCompiled first)")
	}
	ws := a.WSTable()
	c := a.Circuit
	clock := a.Config.withDefaults().ClockPeriod
	perCharge = make([]float64, len(spectrum))
	row := make([]float64, len(c.Outputs()))
	for qi, cw := range spectrum {
		uq := 0.0
		for _, g := range c.Gates {
			if g.Type == ckt.Input {
				continue
			}
			w, err := lib.GlitchGenAt(a.Cells.Cell(g.ID), a.Loads[g.ID], cw.Q)
			if err != nil {
				return 0, nil, err
			}
			for j, r := range ws[g.ID] {
				row[j] = lut.Interp1D(a.Samples, r, w)
			}
			uq += strike.GateU(a.Flux[g.ID], row, clock)
		}
		perCharge[qi] = uq
		total += cw.Weight * uq
	}
	return total, perCharge, nil
}
