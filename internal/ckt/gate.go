// Package ckt provides the gate-level netlist substrate: gate types,
// the circuit graph, topological orders, level assignment, path
// enumeration and 64-way bit-parallel logic evaluation.
//
// Circuits are combinational DAGs, optionally extended with DFF state
// elements (the ISCAS-89 .bench format). A DFF's output is a cut
// point: topological orders treat it as a frame source alongside the
// primary inputs, so the combinational frame of a sequential circuit
// is still a DAG even though the full graph is cyclic through flops.
//
// Every higher layer (characterization, logic simulation, ASERTA,
// SERTOPT, the sequential engine) operates on ckt.Circuit.
package ckt

import "fmt"

// GateType identifies the logic function of a gate.
type GateType uint8

// Gate types supported by the ISCAS-85/89 .bench formats.
const (
	Input GateType = iota // primary input pseudo-gate
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	// DFF is a D flip-flop state element (ISCAS-89). Its single fanin
	// is the D pin; its output is the Q value latched at the previous
	// clock edge, so combinational passes treat it as a frame source.
	DFF
	numGateTypes
)

var gateTypeNames = [numGateTypes]string{
	Input: "INPUT",
	Buf:   "BUFF",
	Not:   "NOT",
	And:   "AND",
	Nand:  "NAND",
	Or:    "OR",
	Nor:   "NOR",
	Xor:   "XOR",
	Xnor:  "XNOR",
	DFF:   "DFF",
}

// String returns the canonical .bench name of the gate type.
func (t GateType) String() string {
	if t >= numGateTypes {
		return fmt.Sprintf("GateType(%d)", uint8(t))
	}
	return gateTypeNames[t]
}

// ParseGateType converts a .bench function name (case-insensitive) to a
// GateType. It accepts the common aliases BUF/BUFF and INV/NOT.
func ParseGateType(s string) (GateType, error) {
	switch upper(s) {
	case "INPUT":
		return Input, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "DFF", "FF":
		return DFF, nil
	}
	return Input, fmt.Errorf("ckt: unknown gate type %q", s)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// IsSource reports whether the gate supplies a value to the
// combinational frame rather than computing one: primary inputs and
// flip-flop outputs (whose value is the previously latched state).
func (t GateType) IsSource() bool { return t == Input || t == DFF }

// Inverting reports whether the gate complements its AND/OR core
// (NAND, NOR, NOT, XNOR are inverting).
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// HasControllingValue reports whether the gate has a controlling input
// value (AND/NAND: 0, OR/NOR: 1). XOR-class and single-input gates do
// not: every input is always sensitized.
func (t GateType) HasControllingValue() bool {
	switch t {
	case And, Nand, Or, Nor:
		return true
	}
	return false
}

// ControllingValue returns the controlling input value for the gate and
// whether one exists.
func (t GateType) ControllingValue() (v bool, ok bool) {
	switch t {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	}
	return false, false
}

// Eval computes the gate function over boolean inputs.
func (t GateType) Eval(in []bool) bool {
	switch t {
	case Input:
		panic("ckt: Eval on INPUT gate")
	case DFF:
		panic("ckt: Eval on DFF gate (state is supplied by frame simulation, not computed from D)")
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if t == Xnor {
			return !v
		}
		return v
	}
	panic(fmt.Sprintf("ckt: Eval on invalid gate type %d", t))
}

// EvalWord computes the gate function bitwise over 64-way packed input
// words, enabling 64 parallel random-vector simulations per call. The
// simulators evaluate whole rows with EvalRows; EvalWord is the
// word-at-a-time reference their tests are built on.
func (t GateType) EvalWord(in []uint64) uint64 {
	switch t {
	case Input:
		panic("ckt: EvalWord on INPUT gate")
	case DFF:
		panic("ckt: EvalWord on DFF gate (state is supplied by frame simulation, not computed from D)")
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if t == Nand {
			return ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, x := range in {
			v |= x
		}
		if t == Nor {
			return ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, x := range in {
			v ^= x
		}
		if t == Xnor {
			return ^v
		}
		return v
	}
	panic(fmt.Sprintf("ckt: EvalWord on invalid gate type %d", t))
}

// EvalRows computes the gate function over whole rows of 64-way packed
// words: dst[w] is EvalWord over the w-th word of every row in in. It
// copies the first row, folds in the rest with one AND, OR or XOR pass
// each, and inverts once for NOT, NAND, NOR and XNOR. in holds one row
// per pin, at least one; every row must hold at least len(dst) words
// and may appear on several pins, but must not alias dst.
func (t GateType) EvalRows(dst []uint64, in [][]uint64) {
	switch t {
	case Input:
		panic("ckt: EvalRows on INPUT gate")
	case DFF:
		panic("ckt: EvalRows on DFF gate (state is supplied by frame simulation, not computed from D)")
	}
	copy(dst, in[0][:len(dst)])
	switch t {
	case Buf, Not:
	case And, Nand:
		for _, r := range in[1:] {
			r = r[:len(dst)]
			for w := range dst {
				dst[w] &= r[w]
			}
		}
	case Or, Nor:
		for _, r := range in[1:] {
			r = r[:len(dst)]
			for w := range dst {
				dst[w] |= r[w]
			}
		}
	case Xor, Xnor:
		for _, r := range in[1:] {
			r = r[:len(dst)]
			for w := range dst {
				dst[w] ^= r[w]
			}
		}
	default:
		panic(fmt.Sprintf("ckt: EvalRows on invalid gate type %d", t))
	}
	if t.Inverting() {
		for w := range dst {
			dst[w] = ^dst[w]
		}
	}
}

// Gate is one node of the netlist DAG. Fanin and fanout are gate IDs
// (indices into Circuit.Gates).
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int
	Fanout []int
	// PO marks the gate as driving a primary output latch.
	PO bool
}
