package ckt

import "fmt"

// Circuit is a gate-level netlist. Gates are stored in a dense slice
// indexed by gate ID; primary inputs are pseudo-gates of type Input
// and state elements are gates of type DFF. The combinational frame —
// the graph with every DFF output treated as a source — must be
// acyclic; Validate checks this. Purely combinational circuits are the
// special case with no DFF gates.
type Circuit struct {
	Name  string
	Gates []*Gate

	byName map[string]int
	inputs []int
	output []int
	dffs   []int
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// AddGate appends a gate with the given name and type and returns its
// ID. Fanin is connected later with Connect (names may be forward
// references in .bench files).
func (c *Circuit) AddGate(name string, t GateType) (int, error) {
	if _, dup := c.byName[name]; dup {
		return 0, fmt.Errorf("ckt: duplicate gate name %q", name)
	}
	id := len(c.Gates)
	g := &Gate{ID: id, Name: name, Type: t}
	c.Gates = append(c.Gates, g)
	c.byName[name] = id
	switch t {
	case Input:
		c.inputs = append(c.inputs, id)
	case DFF:
		c.dffs = append(c.dffs, id)
	}
	return id, nil
}

// MustAddGate is AddGate that panics on duplicate names; for generators
// and tests that control their own namespace.
func (c *Circuit) MustAddGate(name string, t GateType) int {
	id, err := c.AddGate(name, t)
	if err != nil {
		panic(err)
	}
	return id
}

// Connect wires gate src as the next fanin of gate dst and records the
// reverse fanout edge.
func (c *Circuit) Connect(src, dst int) error {
	if src < 0 || src >= len(c.Gates) || dst < 0 || dst >= len(c.Gates) {
		return fmt.Errorf("ckt: connect %d->%d out of range (have %d gates)", src, dst, len(c.Gates))
	}
	if src == dst && c.Gates[dst].Type != DFF {
		// A combinational self-loop is structural nonsense, but a flop
		// holding its own value (Q wired back to D) is legitimate
		// sequential logic: the edge crosses a clock boundary.
		return fmt.Errorf("ckt: self-loop on gate %d (%s)", src, c.Gates[src].Name)
	}
	c.Gates[dst].Fanin = append(c.Gates[dst].Fanin, src)
	c.Gates[src].Fanout = append(c.Gates[src].Fanout, dst)
	return nil
}

// MustConnect is Connect that panics on error.
func (c *Circuit) MustConnect(src, dst int) {
	if err := c.Connect(src, dst); err != nil {
		panic(err)
	}
}

// MarkPO marks gate id as driving a primary output.
func (c *Circuit) MarkPO(id int) {
	if !c.Gates[id].PO {
		c.Gates[id].PO = true
		c.output = append(c.output, id)
	}
}

// GateByName returns the ID for a gate name.
func (c *Circuit) GateByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Inputs returns the IDs of the primary-input pseudo-gates, in
// insertion order.
func (c *Circuit) Inputs() []int { return c.inputs }

// Outputs returns the IDs of the gates marked as primary outputs, in
// marking order.
func (c *Circuit) Outputs() []int { return c.output }

// DFFs returns the IDs of the flip-flop gates, in insertion order.
// This order defines the state-bit index used by frame simulation and
// the sequential analysis.
func (c *Circuit) DFFs() []int { return c.dffs }

// Sequential reports whether the circuit contains state elements.
func (c *Circuit) Sequential() bool { return len(c.dffs) > 0 }

// NumGates returns the number of logic gates (excluding primary-input
// pseudo-gates).
func (c *Circuit) NumGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Type != Input {
			n++
		}
	}
	return n
}

// NumEdges returns the total fanin edge count.
func (c *Circuit) NumEdges() int {
	n := 0
	for _, g := range c.Gates {
		n += len(g.Fanin)
	}
	return n
}

// Validate checks structural sanity: gate arity, acyclicity, and that
// every non-input gate has fanin and every output exists. It returns
// the first problem found.
func (c *Circuit) Validate() error {
	if len(c.inputs) == 0 && len(c.dffs) == 0 {
		return fmt.Errorf("ckt: circuit %q has no primary inputs", c.Name)
	}
	if len(c.output) == 0 {
		return fmt.Errorf("ckt: circuit %q has no primary outputs", c.Name)
	}
	for _, g := range c.Gates {
		switch g.Type {
		case Input:
			if len(g.Fanin) != 0 {
				return fmt.Errorf("ckt: input %q has fanin", g.Name)
			}
		case DFF:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("ckt: flop %q has %d inputs, want exactly 1 (the D pin)", g.Name, len(g.Fanin))
			}
		case Buf, Not:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("ckt: gate %q (%v) has %d inputs, want 1", g.Name, g.Type, len(g.Fanin))
			}
		default:
			if len(g.Fanin) < 2 {
				return fmt.Errorf("ckt: gate %q (%v) has %d inputs, want >=2", g.Name, g.Type, len(g.Fanin))
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the circuit structure. Per-gate
// annotations owned by other packages are not part of Circuit and are
// unaffected.
func (c *Circuit) Clone() *Circuit {
	nc := New(c.Name)
	nc.Gates = make([]*Gate, len(c.Gates))
	for i, g := range c.Gates {
		ng := &Gate{
			ID:     g.ID,
			Name:   g.Name,
			Type:   g.Type,
			Fanin:  append([]int(nil), g.Fanin...),
			Fanout: append([]int(nil), g.Fanout...),
			PO:     g.PO,
		}
		nc.Gates[i] = ng
		nc.byName[g.Name] = i
	}
	nc.inputs = append([]int(nil), c.inputs...)
	nc.output = append([]int(nil), c.output...)
	nc.dffs = append([]int(nil), c.dffs...)
	return nc
}

// Stats summarizes a circuit for reports.
type Stats struct {
	Name    string
	PIs     int
	POs     int
	DFFs    int
	Gates   int
	Edges   int
	Levels  int
	ByType  map[GateType]int
	MaxFani int
	MaxFano int
}

// Summary computes circuit statistics.
func (c *Circuit) Summary() Stats {
	s := Stats{
		Name:   c.Name,
		PIs:    len(c.inputs),
		POs:    len(c.output),
		DFFs:   len(c.dffs),
		Gates:  c.NumGates(),
		Edges:  c.NumEdges(),
		ByType: make(map[GateType]int),
	}
	lv := c.Levels()
	for _, g := range c.Gates {
		if g.Type == Input {
			continue
		}
		s.ByType[g.Type]++
		if len(g.Fanin) > s.MaxFani {
			s.MaxFani = len(g.Fanin)
		}
		if len(g.Fanout) > s.MaxFano {
			s.MaxFano = len(g.Fanout)
		}
		if lv[g.ID] > s.Levels {
			s.Levels = lv[g.ID]
		}
	}
	return s
}
