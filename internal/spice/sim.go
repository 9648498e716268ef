package spice

import (
	"fmt"
	"math"

	"repro/internal/ckt"
	"repro/internal/devmodel"
)

// Waveform drives a primary-input node as a function of time.
type Waveform interface {
	V(t float64) float64
}

// DC is a constant-voltage source.
type DC float64

// V implements Waveform.
func (d DC) V(float64) float64 { return float64(d) }

// Ramp transitions linearly from V0 to V1 starting at T0 over TRise.
type Ramp struct {
	V0, V1    float64
	T0, TRise float64
}

// V implements Waveform.
func (r Ramp) V(t float64) float64 {
	if t <= r.T0 {
		return r.V0
	}
	if r.TRise <= 0 || t >= r.T0+r.TRise {
		return r.V1
	}
	return r.V0 + (r.V1-r.V0)*(t-r.T0)/r.TRise
}

// Pulse is a trapezoidal glitch from Base to Peak: edges of TEdge,
// full-width W measured at the 50% level, starting (first 50%
// crossing) at T0.
type Pulse struct {
	Base, Peak float64
	T0, W      float64
	TEdge      float64
}

// V implements Waveform.
func (p Pulse) V(t float64) float64 {
	half := p.TEdge / 2
	rise := Ramp{V0: p.Base, V1: p.Peak, T0: p.T0 - half, TRise: p.TEdge}
	fall := Ramp{V0: p.Peak, V1: p.Base, T0: p.T0 + p.W - half, TRise: p.TEdge}
	if t < p.T0+p.W-half {
		return rise.V(t)
	}
	return math.Min(rise.V(t), fall.V(t))
}

// Injection is a double-exponential particle-strike current pulse
// delivering total charge Q (C) into a node starting at T0. Negative Q
// removes charge (strike on a logic-high node). TauR/TauF default to
// 5 ps / 20 ps when zero.
type Injection struct {
	Node       int
	Q          float64
	T0         float64
	TauR, TauF float64
}

func (inj *Injection) current(t float64) float64 {
	if t < inj.T0 {
		return 0
	}
	tr, tf := inj.TauR, inj.TauF
	if tr <= 0 {
		tr = 5e-12
	}
	if tf <= 0 {
		tf = 20e-12
	}
	if tf <= tr {
		tf = tr * 4
	}
	x := t - inj.T0
	return inj.Q / (tf - tr) * (math.Exp(-x/tf) - math.Exp(-x/tr))
}

// Sim is a transistor-level transient simulation of one circuit
// instance with a fixed parameter assignment.
type Sim struct {
	tech *devmodel.Tech

	// One voltage/capacitance entry per node. Node 0..nPI-1 are the
	// driven primary-input nodes.
	v   []float64
	cap []float64

	stages []*Stage // topological order
	src    []Waveform
	inj    []*Injection

	// gateOut maps ckt gate ID -> simulator node carrying its output
	// (PI pseudo-gates map to their source node).
	gateOut []int
	// gateVDD records each gate's supply for measurement thresholds.
	gateVDD []float64

	maxVDD float64
	// stageGate maps stage index -> owning gate ID (for cone masks).
	stageGate []int
}

// FromCircuit builds a simulator for circuit c with per-gate
// parameters params (indexed by gate ID; entries for PI pseudo-gates
// are ignored). poLoad is the external load capacitance on every
// primary output (the latch input).
func FromCircuit(tech *devmodel.Tech, c *ckt.Circuit, params []Params, poLoad float64) (*Sim, error) {
	if len(params) != len(c.Gates) {
		return nil, fmt.Errorf("spice: have %d params for %d gates", len(params), len(c.Gates))
	}
	s := &Sim{
		tech:    tech,
		gateOut: make([]int, len(c.Gates)),
		gateVDD: make([]float64, len(c.Gates)),
	}
	var stageGate []int
	newNode := func() int {
		s.v = append(s.v, 0)
		s.cap = append(s.cap, 0)
		return len(s.v) - 1
	}

	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	// First allocate PI nodes in input order so SetInputs is stable.
	for _, id := range c.Inputs() {
		n := newNode()
		s.gateOut[id] = n
		s.gateVDD[id] = tech.VDDnom
		s.src = append(s.src, DC(0))
	}
	maxV := tech.VDDnom
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == ckt.Input {
			continue
		}
		p := params[id]
		if p.VDD > maxV {
			maxV = p.VDD
		}
		s.gateVDD[id] = p.VDD
		kinds, err := decompose(g.Type, len(g.Fanin))
		if err != nil {
			return nil, err
		}
		prevOut := -1
		consumed := 0
		for si, kind := range kinds {
			var inNodes []int
			switch {
			case si == 0 && (kind == stXor2 || kind == stXnor2):
				inNodes = []int{s.gateOut[g.Fanin[0]], s.gateOut[g.Fanin[1]]}
				consumed = 2
			case si == 0:
				inNodes = make([]int, len(g.Fanin))
				for i, f := range g.Fanin {
					inNodes[i] = s.gateOut[f]
				}
				consumed = len(g.Fanin)
			case kind == stInv:
				inNodes = []int{prevOut}
			default: // XOR cascade continuation
				inNodes = []int{prevOut, s.gateOut[g.Fanin[consumed]]}
				consumed++
			}
			st, err := newStage(tech, kind, len(inNodes), p)
			if err != nil {
				return nil, err
			}
			st.in = inNodes
			st.out = newNode()
			s.cap[st.out] += st.selfCap()
			for _, n := range inNodes {
				s.cap[n] += st.inputCap()
			}
			s.stages = append(s.stages, st)
			stageGate = append(stageGate, id)
			prevOut = st.out
		}
		s.gateOut[id] = prevOut
		if g.PO {
			s.cap[prevOut] += poLoad
		}
	}
	s.maxVDD = maxV
	s.stageGate = stageGate
	// Floor node capacitance: every real node has some wire parasitic.
	const wireCap = 5e-17
	for i := range s.cap {
		s.cap[i] += wireCap
	}
	return s, nil
}

// Snapshot copies the current node voltages (pair with Restore to run
// many strike experiments off one settled operating point).
func (s *Sim) Snapshot() []float64 {
	return append([]float64(nil), s.v...)
}

// Restore rewinds node voltages to a Snapshot.
func (s *Sim) Restore(v []float64) {
	copy(s.v, v)
}

// ActiveConeOf returns a per-stage activity mask covering every stage
// of the given gate and its transitive fanout — the only region whose
// voltages can move after a strike at that gate. Cone-limited runs cut
// golden-reference cost by an order of magnitude on real circuits.
func (s *Sim) ActiveConeOf(c *ckt.Circuit, gateID int) []bool {
	inCone := make(map[int]bool)
	stack := []int{gateID}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if inCone[id] {
			continue
		}
		inCone[id] = true
		stack = append(stack, c.Gates[id].Fanout...)
	}
	active := make([]bool, len(s.stages))
	for si, gid := range s.stageGate {
		active[si] = inCone[gid]
	}
	return active
}

// RunActive is Run restricted to the stages enabled in the mask
// (nil = all). Inactive stage outputs hold their current voltages.
func (s *Sim) RunActive(tEnd, dt float64, probes []int, active []bool) [][]float64 {
	waves := make([][]float64, len(probes))
	steps := int(tEnd/dt) + 1
	for i := range waves {
		waves[i] = make([]float64, 0, steps)
	}
	record := func() {
		for i, n := range probes {
			waves[i] = append(waves[i], s.v[n])
		}
	}
	record()
	s.integrate(0, tEnd, dt, record, active)
	return waves
}

// SetInput assigns the waveform driving the i-th primary input (in
// ckt.Circuit.Inputs order).
func (s *Sim) SetInput(i int, w Waveform) { s.src[i] = w }

// SetInputsLogic drives all primary inputs with DC rails for the given
// boolean vector at the technology-nominal VDD.
func (s *Sim) SetInputsLogic(bits []bool, vdd float64) {
	for i, b := range bits {
		if b {
			s.src[i] = DC(vdd)
		} else {
			s.src[i] = DC(0)
		}
	}
}

// AddInjection schedules a particle-strike current pulse.
func (s *Sim) AddInjection(inj *Injection) { s.inj = append(s.inj, inj) }

// ClearInjections removes all scheduled strikes.
func (s *Sim) ClearInjections() { s.inj = nil }

// GateNode returns the simulator node holding gate id's output.
func (s *Sim) GateNode(id int) int { return s.gateOut[id] }

// GateVDD returns the supply voltage of gate id.
func (s *Sim) GateVDD(id int) float64 { return s.gateVDD[id] }

// NodeCap returns the total capacitance on a node.
func (s *Sim) NodeCap(n int) float64 { return s.cap[n] }

// Settle performs a DC initialization: inputs at t=0 values, then each
// stage output set by boolean evaluation with rail levels, followed by
// a short relaxation run so internal nodes land on their true DC
// values.
func (s *Sim) Settle() {
	for i, w := range s.src {
		s.v[i] = w.V(0)
	}
	for _, st := range s.stages {
		in := make([]bool, len(st.in))
		for i, n := range st.in {
			in[i] = s.v[n] > s.maxVDD/2
		}
		if st.logicValue(in) {
			s.v[st.out] = st.vdd
		} else {
			s.v[st.out] = 0
		}
	}
	// Brief relaxation (no injections active before their T0).
	s.integrate(0, 20e-12, 1e-12, nil, nil)
}

// Run integrates from t=0 to tEnd with step dt, recording the voltage
// of each probe node at every step. The returned waveforms are indexed
// as waves[probeIdx][stepIdx]; the time axis is i*dt.
func (s *Sim) Run(tEnd, dt float64, probes []int) [][]float64 {
	return s.RunActive(tEnd, dt, probes, nil)
}

// integrate advances the state from t0 to t1, calling record (if
// non-nil) after each step. active is an optional per-stage activity
// mask; nil means every stage steps.
func (s *Sim) integrate(t0, t1, dt float64, record func(), active []bool) {
	for t := t0; t < t1-dt/2; t += dt {
		tn := t + dt
		for i, w := range s.src {
			s.v[i] = w.V(tn)
		}
		for si, st := range s.stages {
			if active != nil && !active[si] {
				continue
			}
			s.stepStage(st, tn, dt)
		}
		if record != nil {
			record()
		}
	}
}

// stepStage performs one backward-Euler step on a stage output node:
// solve v = vOld + dt/C * (Iout(v) + Iinj(tn)) by Newton iteration
// with numerical derivative and a bisection fallback.
func (s *Sim) stepStage(st *Stage, tn, dt float64) {
	n := st.out
	c := s.cap[n]
	vin := st.vinScratch
	for i, inNode := range st.in {
		vin[i] = s.v[inNode]
	}
	iinj := 0.0
	for _, inj := range s.inj {
		if inj.Node == n {
			iinj += inj.current(tn)
		}
	}
	vOld := s.v[n]
	if v, ok := st.cachedSolve(vin, vOld, iinj, dt); ok {
		s.v[n] = v
		return
	}
	st.prepareOps(vin)
	f := func(v float64) float64 {
		return v - vOld - dt/c*(st.outputCurrentOps(v)+iinj)
	}
	lo, hi := -0.5, s.maxVDD+0.5
	v := vOld
	const h = 1e-4
	converged := false
	for iter := 0; iter < 12; iter++ {
		fv := f(v)
		if math.Abs(fv) < 1e-7 {
			converged = true
			break
		}
		d := (f(v+h) - fv) / h
		if d == 0 || math.IsNaN(d) {
			break
		}
		vNext := v - fv/d
		if vNext < lo {
			vNext = lo
		} else if vNext > hi {
			vNext = hi
		}
		if math.Abs(vNext-v) < 1e-9 {
			v = vNext
			converged = true
			break
		}
		v = vNext
	}
	if !converged {
		// Bisection fallback: f is increasing in v (discharging adds
		// positive v term), so a root is bracketed in [lo, hi].
		a, b := lo, hi
		fa := f(a)
		for iter := 0; iter < 60; iter++ {
			mid := (a + b) / 2
			fm := f(mid)
			if fa*fm <= 0 {
				b = mid
			} else {
				a, fa = mid, fm
			}
		}
		v = (a + b) / 2
	}
	// Physical clamp slightly beyond rails (bootstrapping overshoot).
	if v < -0.3 {
		v = -0.3
	}
	if v > s.maxVDD+0.3 {
		v = s.maxVDD + 0.3
	}
	st.storeSolve(vin, vOld, iinj, dt, v)
	s.v[n] = v
}
