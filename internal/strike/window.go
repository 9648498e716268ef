package strike

import "repro/internal/ckt"

// Clamp applies the Eq. 3 latching-window saturation: capture
// probability is proportional to glitch duration and saturates at one
// clock period (a glitch wider than the cycle is simply certain to be
// latched).
func Clamp(w, clock float64) float64 {
	if w > clock {
		return clock
	}
	return w
}

// GateU is one gate's Eq. 3 unreliability contribution for a W_ij row:
// the flux-weighted sum of window-clamped expected PO glitch widths,
// in picosecond units.
func GateU(flux float64, wij []float64, clock float64) float64 {
	sum := 0.0
	for _, w := range wij {
		if w > clock {
			w = clock
		}
		sum += w
	}
	return flux * sum / 1e-12
}

// Reduce is the pipeline's deterministic reduction for the
// combinational flow: per-gate U contributions (Eq. 3) accumulated in
// netlist order into the circuit total (Eq. 4). The per-gate vector is
// a first-class output — Rank turns it into the susceptibility
// product.
func Reduce(c *ckt.Circuit, flux []float64, wij [][]float64, clock float64) (ui []float64, total float64) {
	ui = make([]float64, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		ui[g.ID] = GateU(flux[g.ID], wij[g.ID], clock)
		total += ui[g.ID]
	}
	return ui, total
}

// SeqContribution is the sequential flow's reduction output: the
// direct (strike cycle) and latched (captured-then-re-emitted) U
// splits per gate, the per-flop capture pressure, and the two totals.
type SeqContribution struct {
	// Direct[i] counts gate i's strike glitches latched at genuine
	// primary outputs in the strike cycle; Latched[i] those captured
	// into flops and re-emitted at POs in later cycles.
	Direct, Latched []float64
	// CaptureU[fi] is flop fi's per-cycle capture pressure
	// Σ_i flux_i · min(W_if, T) / 1ps.
	CaptureU []float64
	// DirectU and LatchedU are the circuit totals (netlist-order
	// accumulation).
	DirectU, LatchedU float64
}

// ReduceSequential reduces a frame's W_ij table for the sequential
// flow: the first numRealPOs columns are genuine primary outputs
// (window-clamped widths count directly), the flopCols columns are
// flop-capture taps (window capture probability min(W,T)/T times the
// expected erroneous latched PO count epf from LogicalPropagate).
func ReduceSequential(c *ckt.Circuit, flux []float64, wij [][]float64, clock float64, numRealPOs int, flopCols []int, epf []float64) *SeqContribution {
	sc := &SeqContribution{
		Direct:   make([]float64, len(c.Gates)),
		Latched:  make([]float64, len(c.Gates)),
		CaptureU: make([]float64, len(flopCols)),
	}
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		row := wij[g.ID]
		f := flux[g.ID]
		latched := 0.0
		for fi, col := range flopCols {
			w := Clamp(row[col], clock)
			latched += w * epf[fi]
			sc.CaptureU[fi] += f * w / 1e-12
		}
		sc.Direct[g.ID] = GateU(f, row[:numRealPOs], clock)
		sc.Latched[g.ID] = f * latched / 1e-12
		sc.DirectU += sc.Direct[g.ID]
		sc.LatchedU += sc.Latched[g.ID]
	}
	return sc
}
