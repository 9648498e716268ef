// Package gen generates deterministic synthetic benchmark circuits
// matching the published ISCAS-85 profiles (PI/PO/gate counts, depth,
// gate-type mix, reconvergent fanout) and — with Profile.Flops — the
// sequential ISCAS-89 profiles (the same combinational fabric plus D
// flip-flops whose Q outputs join the frame sources and whose D pins
// close state feedback loops through the logic).
//
// The genuine ISCAS netlists are not redistributable inside this
// offline reproduction, and the analysis/optimization algorithms under
// test consume only the gate-level graph; a profile-matched graph with
// reconvergence exercises exactly the same code paths (see
// docs/reproduction.md). The genuine c17 and s27 netlists are included
// verbatim; the .bench parser (internal/bench) accepts real netlists
// for drop-in use.
package gen

import (
	"fmt"
	"sort"

	"repro/internal/ckt"
	"repro/internal/stats"
)

// Profile describes the shape of a circuit to generate.
type Profile struct {
	Name  string
	PIs   int
	POs   int
	Gates int
	Depth int // target logic depth in gates
	Seed  uint64
	// TypeMix gives relative weights for gate types chosen for
	// multi-input gates. Single-input INV/BUF gates are sprinkled in
	// with InvFrac probability.
	TypeMix map[ckt.GateType]float64
	// InvFrac is the fraction of gates that are inverters/buffers.
	InvFrac float64
	// MaxFanin bounds gate fanin (>= 2).
	MaxFanin int
	// Flops adds that many D flip-flops (ISCAS-89): their Q outputs
	// join the primary inputs as frame sources, and their D pins are
	// wired to late-level gates, closing state loops through the
	// logic. Gates counts logic gates only, excluding flops.
	Flops int
}

// defaultMix is the NAND-dominated mix typical of the ISCAS-85 suite.
func defaultMix() map[ckt.GateType]float64 {
	return map[ckt.GateType]float64{
		ckt.Nand: 0.40,
		ckt.And:  0.16,
		ckt.Nor:  0.14,
		ckt.Or:   0.12,
		ckt.Xor:  0.04,
		ckt.Xnor: 0.02,
	}
}

// xorMix reproduces the error-correcting-circuit character of
// c499/c1355: XOR-tree dominated.
func xorMix() map[ckt.GateType]float64 {
	return map[ckt.GateType]float64{
		ckt.Xor:  0.55,
		ckt.Xnor: 0.10,
		ckt.Nand: 0.15,
		ckt.And:  0.10,
		ckt.Or:   0.10,
	}
}

// Generate builds a circuit for the profile. Generation is
// deterministic in Profile.Seed.
func Generate(p Profile) (*ckt.Circuit, error) {
	if p.PIs < 2 || p.POs < 1 || p.Gates < p.POs {
		return nil, fmt.Errorf("gen: degenerate profile %+v", p)
	}
	if p.MaxFanin < 2 {
		p.MaxFanin = 4
	}
	if p.Depth < 3 {
		p.Depth = 3
	}
	if p.TypeMix == nil {
		p.TypeMix = defaultMix()
	}
	rng := stats.NewRNG(p.Seed)
	c := ckt.New(p.Name)

	for i := 0; i < p.PIs; i++ {
		c.MustAddGate(fmt.Sprintf("pi%d", i), ckt.Input)
	}
	for i := 0; i < p.Flops; i++ {
		// Flop Q outputs are frame sources alongside the PIs; the D
		// pins are connected after the fabric exists.
		c.MustAddGate(fmt.Sprintf("ff%d", i), ckt.DFF)
	}
	firstLogicID := p.PIs + p.Flops

	// Distribute gates over levels with a wide middle: level widths
	// follow a flattened triangular shape. The last level is reserved
	// for the PO gates so primary outputs are terminal (no fanout),
	// matching the ISCAS-85 structure ASERTA's §3.2 pass assumes.
	levels := p.Depth
	width := make([]int, levels)
	width[levels-1] = p.POs
	remaining := p.Gates - p.POs
	for l := 0; l < levels-1; l++ {
		width[l] = 1
		remaining--
	}
	for remaining > 0 {
		// Bias towards early-middle levels (ISCAS cones narrow toward POs).
		l := (rng.Intn(levels-1) + rng.Intn(levels-1)) / 2
		width[l]++
		remaining--
	}

	// typePick samples a multi-input gate type from the mix.
	types := make([]ckt.GateType, 0, len(p.TypeMix))
	weights := make([]float64, 0, len(p.TypeMix))
	totalW := 0.0
	for _, t := range []ckt.GateType{ckt.And, ckt.Nand, ckt.Or, ckt.Nor, ckt.Xor, ckt.Xnor} {
		if w := p.TypeMix[t]; w > 0 {
			types = append(types, t)
			weights = append(weights, w)
			totalW += w
		}
	}
	typePick := func() ckt.GateType {
		x := rng.Float64() * totalW
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return types[i]
			}
		}
		return types[len(types)-1]
	}

	// levelNodes[l] holds gate IDs available as sources for level l+1;
	// level -1 (index 0 here) is the frame sources: PIs and flop Qs.
	levelNodes := make([][]int, levels+1)
	levelNodes[0] = append([]int(nil), c.Inputs()...)
	levelNodes[0] = append(levelNodes[0], c.DFFs()...)

	gateNum := 0
	for l := 0; l < levels; l++ {
		for k := 0; k < width[l]; k++ {
			var gt ckt.GateType
			nIn := 0
			if l > 0 && rng.Float64() < p.InvFrac {
				gt = ckt.Not
				nIn = 1
			} else {
				gt = typePick()
				nIn = 2
				for nIn < p.MaxFanin && rng.Float64() < 0.35 {
					nIn++
				}
				if gt == ckt.Xor || gt == ckt.Xnor {
					nIn = 2 + rng.Intn(2) // XOR trees are 2-3 input
				}
			}
			id := c.MustAddGate(fmt.Sprintf("g%d", gateNum), gt)
			gateNum++
			// Choose fanins: mostly the previous level (locality),
			// sometimes deeper back — this is what creates
			// reconvergent fanout across cones.
			anchor := l // index into levelNodes: l means "level l-1 outputs"
			if p.Flops > 0 && l == levels-1 && levels > 1 {
				// Sequential profiles: the real ISCAS-89 outputs sit at
				// varied logic depths, not all at the maximum. Anchor
				// each PO gate's fanin cone at a random level so
				// captured flop faults stay observable — with every PO
				// behind the full depth, logical masking would hide
				// nearly all of them.
				anchor = 1 + rng.Intn(levels-1)
			}
			// The sampler below draws distinct sources from levels
			// [0, anchor]; a fanin demand beyond the distinct sources
			// actually reachable (tiny PI counts, narrow early levels)
			// would never terminate. Clamp to what exists.
			avail := 0
			for sl := 0; sl <= anchor; sl++ {
				avail += len(levelNodes[sl])
			}
			if nIn > avail {
				nIn = avail
			}
			chosen := make(map[int]bool)
			for len(chosen) < nIn {
				srcLevel := anchor
				for srcLevel > 0 && rng.Float64() < 0.35 {
					srcLevel--
				}
				pool := levelNodes[srcLevel]
				if len(pool) == 0 {
					srcLevel = 0
					pool = levelNodes[0]
				}
				src := pool[rng.Intn(len(pool))]
				if !chosen[src] {
					chosen[src] = true
					c.MustConnect(src, id)
				}
			}
			levelNodes[l+1] = append(levelNodes[l+1], id)
		}
	}

	// POs: prefer last-level gates, then walk back; every chosen PO
	// must be a gate (not a PI).
	var poPool []int
	for l := levels; l >= 1 && len(poPool) < p.POs*3; l-- {
		poPool = append(poPool, levelNodes[l]...)
	}
	if len(poPool) < p.POs {
		return nil, fmt.Errorf("gen: cannot place %d POs with %d candidates", p.POs, len(poPool))
	}
	// Dangling mid-level gates are wired as extra fanin into a later
	// gate that can absorb one more input, keeping the PO count at the
	// published profile (and keeping POs terminal). Only gates that
	// genuinely cannot be absorbed become extra POs.
	for l := 1; l < levels; l++ {
		for _, id := range levelNodes[l] {
			g := c.Gates[id]
			if len(g.Fanout) > 0 {
				continue
			}
			attached := false
			for try := 0; try < 60 && !attached; try++ {
				dl := l + 1 + rng.Intn(levels-l)
				pool := levelNodes[dl]
				if len(pool) == 0 {
					continue
				}
				dst := pool[rng.Intn(len(pool))]
				dg := c.Gates[dst]
				if dg.Type == ckt.Not || dg.Type == ckt.Buf || len(dg.Fanin) >= p.MaxFanin {
					continue
				}
				already := false
				for _, f := range dg.Fanin {
					if f == id {
						already = true
						break
					}
				}
				if !already {
					c.MustConnect(id, dst)
					attached = true
				}
			}
			if !attached {
				c.MarkPO(id)
			}
		}
	}
	// Last-level gates are the POs.
	for _, id := range levelNodes[levels] {
		c.MarkPO(id)
	}
	for i := 0; len(c.Outputs()) < p.POs && i < len(poPool); i++ {
		c.MarkPO(poPool[i])
	}

	// Any unused frame source (PI or flop Q) gets wired into a random
	// gate as an extra input if arity allows, else into a new 2-input
	// gate near the outputs.
	sources := append(append([]int(nil), c.Inputs()...), c.DFFs()...)
	for _, src0 := range sources {
		if len(c.Gates[src0].Fanout) > 0 {
			continue
		}
		// Find a gate that can absorb one more input.
		attached := false
		for try := 0; try < 50 && !attached; try++ {
			id := firstLogicID + rng.Intn(gateNum)
			g := c.Gates[id]
			if g.Type.HasControllingValue() && len(g.Fanin) < p.MaxFanin {
				c.MustConnect(src0, id)
				attached = true
			}
		}
		if !attached {
			// New terminal AND gate fed by the source and a
			// penultimate-level node (never a PO gate — POs must stay
			// terminal).
			id := c.MustAddGate(fmt.Sprintf("g%d", gateNum), ckt.And)
			gateNum++
			c.MustConnect(src0, id)
			pool := levelNodes[levels-1]
			src := pool[rng.Intn(len(pool))]
			c.MustConnect(src, id)
			c.MarkPO(id)
		}
	}

	// Close the state loops: each flop's D pin is driven by a
	// late-level non-PO gate, mirroring the ISCAS-89 structure where
	// next-state logic sits deep in the fabric. The D edge crosses a
	// clock boundary, so any driver is legal — reconvergence through
	// flops back into earlier levels is exactly what makes these
	// circuits sequential.
	if p.Flops > 0 {
		var dPool []int
		for l := levels; l >= 1 && len(dPool) < 4*p.Flops; l-- {
			for _, id := range levelNodes[l] {
				if !c.Gates[id].PO {
					dPool = append(dPool, id)
				}
			}
		}
		if len(dPool) == 0 {
			// Degenerate fabric (everything is a PO): fall back to any
			// logic gate.
			for l := 1; l <= levels; l++ {
				dPool = append(dPool, levelNodes[l]...)
			}
		}
		if len(dPool) == 0 {
			return nil, fmt.Errorf("gen: no candidate D drivers for %d flops", p.Flops)
		}
		for _, ff := range c.DFFs() {
			c.MustConnect(dPool[rng.Intn(len(dPool))], ff)
		}
	}

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated circuit invalid: %v", err)
	}
	return c, nil
}

// iscasProfiles holds the published ISCAS-85 shapes. Gate counts, PI
// and PO counts follow the original benchmark documentation; depths
// are representative. Seeds are fixed so every experiment in this
// repository sees identical circuits.
var iscasProfiles = map[string]Profile{
	"c432":  {Name: "c432", PIs: 36, POs: 7, Gates: 160, Depth: 17, Seed: 432, InvFrac: 0.25},
	"c499":  {Name: "c499", PIs: 41, POs: 32, Gates: 202, Depth: 11, Seed: 499, InvFrac: 0.20, TypeMix: xorMix()},
	"c880":  {Name: "c880", PIs: 60, POs: 26, Gates: 383, Depth: 24, Seed: 880, InvFrac: 0.25},
	"c1355": {Name: "c1355", PIs: 41, POs: 32, Gates: 546, Depth: 24, Seed: 1355, InvFrac: 0.20, TypeMix: xorMix()},
	"c1908": {Name: "c1908", PIs: 33, POs: 25, Gates: 880, Depth: 40, Seed: 1908, InvFrac: 0.30},
	"c2670": {Name: "c2670", PIs: 233, POs: 140, Gates: 1193, Depth: 32, Seed: 2670, InvFrac: 0.25},
	"c3540": {Name: "c3540", PIs: 50, POs: 22, Gates: 1669, Depth: 47, Seed: 3540, InvFrac: 0.28},
	"c5315": {Name: "c5315", PIs: 178, POs: 123, Gates: 2307, Depth: 49, Seed: 5315, InvFrac: 0.25},
	"c6288": {Name: "c6288", PIs: 32, POs: 32, Gates: 2416, Depth: 124, Seed: 6288, InvFrac: 0.05,
		TypeMix: map[ckt.GateType]float64{ckt.And: 0.25, ckt.Nor: 0.65, ckt.Nand: 0.10}},
	"c7552": {Name: "c7552", PIs: 207, POs: 108, Gates: 3512, Depth: 43, Seed: 7552, InvFrac: 0.28},
}

// iscas89Profiles holds the published ISCAS-89 shapes: PI, PO, flop
// and logic-gate counts follow the original benchmark documentation;
// depths are representative. Seeds are fixed so every experiment sees
// identical circuits.
var iscas89Profiles = map[string]Profile{
	"s298":   {Name: "s298", PIs: 3, POs: 6, Gates: 119, Flops: 14, Depth: 9, Seed: 298, InvFrac: 0.37},
	"s344":   {Name: "s344", PIs: 9, POs: 11, Gates: 160, Flops: 15, Depth: 20, Seed: 344, InvFrac: 0.37},
	"s386":   {Name: "s386", PIs: 7, POs: 7, Gates: 159, Flops: 6, Depth: 11, Seed: 386, InvFrac: 0.26},
	"s526":   {Name: "s526", PIs: 3, POs: 6, Gates: 193, Flops: 21, Depth: 9, Seed: 526, InvFrac: 0.28},
	"s832":   {Name: "s832", PIs: 18, POs: 19, Gates: 287, Flops: 5, Depth: 10, Seed: 832, InvFrac: 0.17},
	"s1196":  {Name: "s1196", PIs: 14, POs: 14, Gates: 529, Flops: 18, Depth: 24, Seed: 1196, InvFrac: 0.27},
	"s1423":  {Name: "s1423", PIs: 17, POs: 5, Gates: 657, Flops: 74, Depth: 59, Seed: 1423, InvFrac: 0.28},
	"s5378":  {Name: "s5378", PIs: 35, POs: 49, Gates: 2779, Flops: 179, Depth: 25, Seed: 5378, InvFrac: 0.35},
	"s9234":  {Name: "s9234", PIs: 36, POs: 39, Gates: 5597, Flops: 211, Depth: 38, Seed: 9234, InvFrac: 0.35},
	"s38417": {Name: "s38417", PIs: 28, POs: 106, Gates: 22179, Flops: 1636, Depth: 47, Seed: 38417, InvFrac: 0.30},
}

// Names lists the available ISCAS-85 profile names in suite order.
func Names() []string {
	names := make([]string, 0, len(iscasProfiles)+1)
	names = append(names, "c17")
	for n := range iscasProfiles {
		names = append(names, n)
	}
	sortNumeric(names)
	return names
}

// SeqNames lists the available ISCAS-89 benchmark names in suite
// order.
func SeqNames() []string {
	names := make([]string, 0, len(iscas89Profiles)+1)
	names = append(names, "s27")
	for n := range iscas89Profiles {
		names = append(names, n)
	}
	sortNumeric(names)
	return names
}

func sortNumeric(names []string) {
	sort.Slice(names, func(i, j int) bool {
		// Numeric order: strip the leading letter.
		var a, b int
		fmt.Sscanf(names[i][1:], "%d", &a)
		fmt.Sscanf(names[j][1:], "%d", &b)
		return a < b
	})
}

// ISCAS85 returns the named benchmark: the genuine c17 netlist, or the
// profile-matched synthetic circuit for the larger members.
func ISCAS85(name string) (*ckt.Circuit, error) {
	if name == "c17" {
		return C17(), nil
	}
	p, ok := iscasProfiles[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown ISCAS-85 circuit %q (have %v)", name, Names())
	}
	return Generate(p)
}

// ISCAS89 returns the named sequential benchmark: the genuine s27
// netlist, or the profile-matched synthetic circuit for the larger
// members.
func ISCAS89(name string) (*ckt.Circuit, error) {
	if name == "s27" {
		return S27(), nil
	}
	p, ok := iscas89Profiles[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown ISCAS-89 circuit %q (have %v)", name, SeqNames())
	}
	return Generate(p)
}

// S27 returns the genuine ISCAS-89 s27 netlist (4 PIs, 1 PO, 3 DFFs,
// 10 gates).
func S27() *ckt.Circuit {
	c := ckt.New("s27")
	for _, n := range []string{"G0", "G1", "G2", "G3"} {
		c.MustAddGate(n, ckt.Input)
	}
	for _, n := range []string{"G5", "G6", "G7"} {
		c.MustAddGate(n, ckt.DFF)
	}
	add := func(name string, t ckt.GateType, ins ...string) int {
		id := c.MustAddGate(name, t)
		for _, in := range ins {
			src, ok := c.GateByName(in)
			if !ok {
				panic("gen: s27 wiring references unknown signal " + in)
			}
			c.MustConnect(src, id)
		}
		return id
	}
	add("G14", ckt.Not, "G0")
	add("G8", ckt.And, "G14", "G6")
	add("G12", ckt.Nor, "G1", "G7")
	add("G15", ckt.Or, "G12", "G8")
	add("G16", ckt.Or, "G3", "G8")
	add("G13", ckt.Nor, "G2", "G12")
	add("G9", ckt.Nand, "G16", "G15")
	add("G11", ckt.Nor, "G5", "G9")
	add("G10", ckt.Nor, "G14", "G11")
	g17 := add("G17", ckt.Not, "G11")
	// State loops: G5 <= G10, G6 <= G11, G7 <= G13.
	for _, w := range [][2]string{{"G5", "G10"}, {"G6", "G11"}, {"G7", "G13"}} {
		fid, _ := c.GateByName(w[0])
		did, _ := c.GateByName(w[1])
		c.MustConnect(did, fid)
	}
	c.MarkPO(g17)
	return c
}

// C17 returns the genuine ISCAS-85 c17 netlist (5 PIs, 2 POs, 6 NAND2
// gates).
func C17() *ckt.Circuit {
	c := ckt.New("c17")
	for _, n := range []string{"1", "2", "3", "6", "7"} {
		c.MustAddGate(n, ckt.Input)
	}
	add := func(name string, ins ...string) int {
		id := c.MustAddGate(name, ckt.Nand)
		for _, in := range ins {
			src, _ := c.GateByName(in)
			c.MustConnect(src, id)
		}
		return id
	}
	add("10", "1", "3")
	add("11", "3", "6")
	add("16", "2", "11")
	add("19", "11", "7")
	g22 := add("22", "10", "16")
	g23 := add("23", "16", "19")
	c.MarkPO(g22)
	c.MarkPO(g23)
	return c
}
