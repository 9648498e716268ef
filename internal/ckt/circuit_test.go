package ckt

import (
	"strings"
	"testing"
)

// buildC17 constructs the genuine ISCAS-85 c17 netlist: 5 PIs, 2 POs,
// 6 NAND2 gates.
func buildC17(t testing.TB) *Circuit {
	t.Helper()
	c := New("c17")
	in := map[string]int{}
	for _, n := range []string{"1", "2", "3", "6", "7"} {
		in[n] = c.MustAddGate(n, Input)
	}
	g10 := c.MustAddGate("10", Nand)
	g11 := c.MustAddGate("11", Nand)
	g16 := c.MustAddGate("16", Nand)
	g19 := c.MustAddGate("19", Nand)
	g22 := c.MustAddGate("22", Nand)
	g23 := c.MustAddGate("23", Nand)
	c.MustConnect(in["1"], g10)
	c.MustConnect(in["3"], g10)
	c.MustConnect(in["3"], g11)
	c.MustConnect(in["6"], g11)
	c.MustConnect(in["2"], g16)
	c.MustConnect(g11, g16)
	c.MustConnect(g11, g19)
	c.MustConnect(in["7"], g19)
	c.MustConnect(g10, g22)
	c.MustConnect(g16, g22)
	c.MustConnect(g16, g23)
	c.MustConnect(g19, g23)
	c.MarkPO(g22)
	c.MarkPO(g23)
	if err := c.Validate(); err != nil {
		t.Fatalf("c17 invalid: %v", err)
	}
	return c
}

func TestC17Structure(t *testing.T) {
	c := buildC17(t)
	s := c.Summary()
	if s.PIs != 5 || s.POs != 2 || s.Gates != 6 {
		t.Fatalf("c17 summary = %+v, want 5 PIs, 2 POs, 6 gates", s)
	}
	if s.ByType[Nand] != 6 {
		t.Errorf("c17 should be all-NAND, got %v", s.ByType)
	}
	if s.Levels != 3 {
		t.Errorf("c17 depth = %d, want 3", s.Levels)
	}
	if s.Edges != 12 {
		t.Errorf("c17 edges = %d, want 12", s.Edges)
	}
}

func TestDuplicateName(t *testing.T) {
	c := New("dup")
	c.MustAddGate("a", Input)
	if _, err := c.AddGate("a", And); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestConnectErrors(t *testing.T) {
	c := New("bad")
	a := c.MustAddGate("a", Input)
	if err := c.Connect(a, a); err == nil {
		t.Error("self-loop accepted")
	}
	if err := c.Connect(a, 99); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if err := c.Connect(-1, a); err == nil {
		t.Error("out-of-range src accepted")
	}
}

func TestValidateArity(t *testing.T) {
	c := New("arity")
	a := c.MustAddGate("a", Input)
	g := c.MustAddGate("g", And)
	c.MustConnect(a, g)
	c.MarkPO(g)
	if err := c.Validate(); err == nil {
		t.Error("AND with one input accepted")
	}
	c2 := New("arity2")
	a2 := c2.MustAddGate("a", Input)
	b2 := c2.MustAddGate("b", Input)
	n2 := c2.MustAddGate("n", Not)
	c2.MustConnect(a2, n2)
	c2.MustConnect(b2, n2)
	c2.MarkPO(n2)
	if err := c2.Validate(); err == nil {
		t.Error("NOT with two inputs accepted")
	}
}

func TestValidateEmpty(t *testing.T) {
	c := New("empty")
	if err := c.Validate(); err == nil {
		t.Error("circuit without PIs accepted")
	}
	c.MustAddGate("a", Input)
	if err := c.Validate(); err == nil {
		t.Error("circuit without POs accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	c := New("cyc")
	a := c.MustAddGate("a", Input)
	g1 := c.MustAddGate("g1", And)
	g2 := c.MustAddGate("g2", And)
	c.MustConnect(a, g1)
	c.MustConnect(g2, g1)
	c.MustConnect(a, g2)
	c.MustConnect(g1, g2)
	c.MarkPO(g2)
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate on cyclic circuit: %v", err)
	}
}

func TestClone(t *testing.T) {
	c := buildC17(t)
	d := c.Clone()
	if d.NumGates() != c.NumGates() || len(d.Inputs()) != len(c.Inputs()) || len(d.Outputs()) != len(c.Outputs()) {
		t.Fatal("clone shape mismatch")
	}
	// Mutating the clone must not affect the original.
	d.Gates[5].Fanin[0] = 0
	if c.Gates[5].Fanin[0] == 0 && c.Gates[5].Fanin[0] != d.Gates[5].Fanin[0] {
		t.Fatal("clone shares fanin slices")
	}
	if id, ok := d.GateByName("22"); !ok || d.Gates[id].Name != "22" {
		t.Fatal("clone lost name index")
	}
}

func TestGateByName(t *testing.T) {
	c := buildC17(t)
	if _, ok := c.GateByName("nope"); ok {
		t.Error("found nonexistent gate")
	}
	id, ok := c.GateByName("10")
	if !ok || c.Gates[id].Name != "10" {
		t.Error("lookup failed for gate 10")
	}
}
