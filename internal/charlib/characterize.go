package charlib

import (
	"fmt"

	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/lut"
	"repro/internal/par"
	"repro/internal/spice"
)

// Grid defines the characterization axes. These correspond directly to
// the paper's table dimensions (sizes, channel lengths, VDDs, Vths,
// load capacitances).
type Grid struct {
	Sizes   []float64 // relative gate sizes (1 = 100 nm width)
	Lengths []float64 // channel lengths (m)
	VDDs    []float64 // supply voltages (V)
	Vths    []float64 // threshold voltages (V)
	Loads   []float64 // load capacitances (F)
	// Charges optionally adds a sixth axis to the glitch-generation
	// table: injected charge (C). The paper fixed the charge at 16 fC
	// and noted "Future versions of ASERTA will have look-up tables
	// for different amounts of injected charge" — this implements that
	// extension (see Library.GlitchGenAt and aserta's charge spectrum).
	Charges []float64
}

// DefaultGrid covers the paper's design space: sizes up to 8x, the
// five channel lengths SERTOPT may assign (70/100/150/250/300 nm), the
// paper's supply menu and threshold menu, and load capacitances
// spanning minimum-size to heavily loaded gates.
func DefaultGrid() Grid {
	return Grid{
		Sizes:   []float64{1, 2, 4, 8},
		Lengths: []float64{70e-9, 100e-9, 150e-9, 250e-9, 300e-9},
		VDDs:    []float64{0.8, 1.0, 1.2},
		Vths:    []float64{0.1, 0.2, 0.3},
		Loads:   []float64{0.1e-15, 0.4e-15, 1.2e-15, 4e-15},
	}
}

// CoarseGrid is a small grid for tests and quick runs.
func CoarseGrid() Grid {
	return Grid{
		Sizes:   []float64{1, 4},
		Lengths: []float64{70e-9, 300e-9},
		VDDs:    []float64{0.8, 1.2},
		Vths:    []float64{0.1, 0.3},
		Loads:   []float64{0.2e-15, 2e-15},
	}
}

// classTables holds the characterized lookup tables of one gate class.
// Delay and Glitch share the axes (size, L, VDD, Vth, load); GlitchQ,
// present only when the grid has a charge axis, adds injected charge
// as a sixth dimension.
type classTables struct {
	Delay   *lut.Table `json:"delay"`              // propagation delay (s)
	Glitch  *lut.Table `json:"glitch"`             // generated glitch width (s) for QInj
	GlitchQ *lut.Table `json:"glitch_q,omitempty"` // width (s) vs injected charge
}

// charConfig collects simulator settings for characterization runs.
type charConfig struct {
	dt        float64
	inRamp    float64
	delayWin  float64
	glitchWin float64
}

func defaultCharConfig() charConfig {
	return charConfig{
		dt:        1e-12,
		inRamp:    20e-12,
		delayWin:  600e-12,
		glitchWin: 2000e-12,
	}
}

// gridPoints enumerates every index vector of the given axes in
// row-major order (last axis fastest), matching lut.Table layout.
func gridPoints(axes [][]float64) [][]int {
	total := 1
	for _, ax := range axes {
		total *= len(ax)
	}
	pts := make([][]int, 0, total)
	idx := make([]int, len(axes))
	for {
		pts = append(pts, append([]int(nil), idx...))
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(axes[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return pts
		}
	}
}

// characterizeClass fills the tables for one gate class by
// running the transient simulator at every grid point. Grid points are
// independent SPICE runs writing disjoint table slots, so they are
// fanned out over a worker pool; the tables that result are identical
// to a serial fill.
func characterizeClass(tech *devmodel.Tech, cl Class, g Grid, qInj float64, cfg charConfig) (*classTables, error) {
	mk := func() *lut.Table {
		return lut.MustNew(g.Sizes, g.Lengths, g.VDDs, g.Vths, g.Loads)
	}
	ct := &classTables{Delay: mk(), Glitch: mk()}
	axes := [][]float64{g.Sizes, g.Lengths, g.VDDs, g.Vths, g.Loads}
	pts := gridPoints(axes)
	errs := make([]error, len(pts))
	par.For(len(pts), 0, func(pi int) {
		idx := pts[pi]
		p := spice.Params{Size: axes[0][idx[0]], L: axes[1][idx[1]], VDD: axes[2][idx[2]], Vth: axes[3][idx[3]]}
		load := axes[4][idx[4]]
		d, err := measureDelay(tech, cl, p, load, cfg)
		if err != nil {
			errs[pi] = err
			return
		}
		w, err := measureGlitchGen(tech, cl, p, load, qInj, cfg)
		if err != nil {
			errs[pi] = err
			return
		}
		ct.Delay.Set(idx, d)
		ct.Glitch.Set(idx, w)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(g.Charges) > 0 {
		gq := lut.MustNew(g.Sizes, g.Lengths, g.VDDs, g.Vths, g.Loads, g.Charges)
		qAxes := append(append([][]float64(nil), axes...), g.Charges)
		qPts := gridPoints(qAxes)
		qErrs := make([]error, len(qPts))
		par.For(len(qPts), 0, func(pi int) {
			idx := qPts[pi]
			p := spice.Params{Size: qAxes[0][idx[0]], L: qAxes[1][idx[1]], VDD: qAxes[2][idx[2]], Vth: qAxes[3][idx[3]]}
			w, err := measureGlitchGen(tech, cl, p, qAxes[4][idx[4]], qAxes[5][idx[5]], cfg)
			if err != nil {
				qErrs[pi] = err
				return
			}
			gq.Set(idx, w)
		})
		for _, err := range qErrs {
			if err != nil {
				return nil, err
			}
		}
		ct.GlitchQ = gq
	}
	return ct, nil
}

// dutCircuit builds the characterization fixture: fanin PIs feeding
// one device-under-test gate marked as PO.
func dutCircuit(cl Class) (*ckt.Circuit, int, error) {
	c := ckt.New("dut-" + cl.String())
	nIn := cl.Fanin
	if cl.Type == ckt.Not || cl.Type == ckt.Buf {
		nIn = 1
	}
	for i := 0; i < nIn; i++ {
		c.MustAddGate(fmt.Sprintf("i%d", i), ckt.Input)
	}
	dut, err := c.AddGate("dut", cl.Type)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < nIn; i++ {
		id, _ := c.GateByName(fmt.Sprintf("i%d", i))
		if err := c.Connect(id, dut); err != nil {
			return nil, 0, err
		}
	}
	c.MarkPO(dut)
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	return c, dut, nil
}

// nonControlling returns the DC level for side inputs so the switching
// input 0 is sensitized.
func nonControlling(t ckt.GateType, vdd float64) float64 {
	switch t {
	case ckt.And, ckt.Nand:
		return vdd
	case ckt.Or, ckt.Nor:
		return 0
	default: // XOR/XNOR and single-input gates: any value sensitizes
		return 0
	}
}

// measureDelay runs two transients (input rising and falling) and
// returns the mean propagation delay over the transients whose output
// completes a swing: both the delay and the output 10–90% transition
// time must be positive for a transient to count.
func measureDelay(tech *devmodel.Tech, cl Class, p spice.Params, load float64, cfg charConfig) (float64, error) {
	c, dut, err := dutCircuit(cl)
	if err != nil {
		return 0, err
	}
	var dSum float64
	n := 0
	for _, rising := range []bool{true, false} {
		sim, err := spice.FromCircuit(tech, c, uniformParams(c, p), load)
		if err != nil {
			return 0, err
		}
		v0, v1 := 0.0, p.VDD
		if !rising {
			v0, v1 = p.VDD, 0
		}
		sim.SetInput(0, spice.Ramp{V0: v0, V1: v1, T0: 50e-12, TRise: cfg.inRamp})
		for i := 1; i < len(c.Inputs()); i++ {
			sim.SetInput(i, spice.DC(nonControlling(cl.Type, p.VDD)))
		}
		sim.Settle()
		probes := []int{sim.GateNode(c.Inputs()[0]), sim.GateNode(dut)}
		waves := sim.Run(cfg.delayWin, cfg.dt, probes)
		d := spice.PropagationDelay(waves[0], waves[1], cfg.dt, p.VDD, p.VDD)
		r := spice.TransitionTime(waves[1], cfg.dt, p.VDD)
		if d > 0 && r > 0 {
			dSum += d
			n++
		}
	}
	if n == 0 {
		// Cell cannot complete a swing within the window (extremely
		// weak corner); report the window as a saturated delay.
		return cfg.delayWin, nil
	}
	return dSum / float64(n), nil
}

// measureGlitchGen injects the strike charge at the DUT output for
// both output polarities and returns the mean resulting glitch width,
// reproducing the paper's generated-glitch-width table.
func measureGlitchGen(tech *devmodel.Tech, cl Class, p spice.Params, load, qInj float64, cfg charConfig) (float64, error) {
	c, dut, err := dutCircuit(cl)
	if err != nil {
		return 0, err
	}
	var sum float64
	n := 0
	for _, outHigh := range []bool{true, false} {
		sim, err := spice.FromCircuit(tech, c, uniformParams(c, p), load)
		if err != nil {
			return 0, err
		}
		bits := inputsForOutput(cl.Type, len(c.Inputs()), outHigh)
		sim.SetInputsLogic(bits, p.VDD)
		sim.Settle()
		q := qInj
		if outHigh {
			q = -qInj
		}
		node := sim.GateNode(dut)
		sim.AddInjection(&spice.Injection{Node: node, Q: q, T0: 20e-12})
		waves := sim.Run(cfg.glitchWin, cfg.dt, []int{node})
		sum += spice.GlitchWidth(waves[0], cfg.dt, p.VDD)
		n++
	}
	return sum / float64(n), nil
}

// inputsForOutput returns a DC input vector driving the gate output to
// the requested level.
func inputsForOutput(t ckt.GateType, nIn int, outHigh bool) []bool {
	bits := make([]bool, nIn)
	set := func(v bool) {
		for i := range bits {
			bits[i] = v
		}
	}
	switch t {
	case ckt.Not:
		bits[0] = !outHigh
	case ckt.Buf:
		bits[0] = outHigh
	case ckt.And:
		set(outHigh)
	case ckt.Nand:
		set(!outHigh)
	case ckt.Or:
		set(outHigh)
	case ckt.Nor:
		set(!outHigh)
	case ckt.Xor:
		// Parity of ones = outHigh.
		if outHigh {
			bits[0] = true
		}
	case ckt.Xnor:
		if !outHigh {
			bits[0] = true
		}
	}
	return bits
}

func uniformParams(c *ckt.Circuit, p spice.Params) []spice.Params {
	ps := make([]spice.Params, len(c.Gates))
	for i := range ps {
		ps[i] = p
	}
	return ps
}
