package charlib

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ckt"
)

// TestTableInternsOnce checks that a table gives a cell one ID however
// often it is interned, holds the library's Props bit for bit, leaves
// primary inputs at -1, and sums each gate's load over its fanout pins
// in fanout order plus the PO load.
func TestTableInternsOnce(t *testing.T) {
	l := lib(t)
	c := ckt.New("fan")
	a, _ := c.AddGate("a", ckt.Input)
	b, _ := c.AddGate("b", ckt.Input)
	n1, _ := c.AddGate("n1", ckt.Nand)
	n2, _ := c.AddGate("n2", ckt.Not)
	n3, _ := c.AddGate("n3", ckt.Nor)
	for _, e := range [][2]int{{a, n1}, {b, n1}, {n1, n2}, {n1, n3}, {b, n3}} {
		if err := c.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	c.MarkPO(n2)
	c.MarkPO(n3)
	big := nomCell(ckt.Not, 1)
	big.Size = 4
	cells := []Cell{{}, {}, nomCell(ckt.Nand, 2), big, nomCell(ckt.Nor, 2)}

	tab := NewTable(l)
	asg, err := tab.InternAll(c, cells)
	if err != nil {
		t.Fatal(err)
	}
	ids := asg.IDs
	if ids[a] != -1 || ids[b] != -1 || asg.Cell(a) != (Cell{}) {
		t.Fatalf("primary inputs got IDs %d, %d and cell %+v; want -1 and the zero cell", ids[a], ids[b], asg.Cell(a))
	}
	for _, g := range []int{n1, n2, n3} {
		again, err := tab.Intern(cells[g])
		if err != nil {
			t.Fatal(err)
		}
		if again != ids[g] || tab.Cell(again) != cells[g] || asg.Cell(g) != cells[g] {
			t.Fatalf("gate %d: re-interned as %d (%+v), want %d (%+v)", g, again, tab.Cell(again), ids[g], cells[g])
		}
		if want := props(t, l, cells[g]); *tab.Props(ids[g]) != want {
			t.Fatalf("gate %d: table props %+v, library %+v", g, *tab.Props(ids[g]), want)
		}
	}

	const poLoad = 2e-15
	loads := make([]float64, len(c.Gates))
	tab.Loads(c, ids, poLoad, loads)
	for _, g := range c.Gates {
		want := 0.0
		for _, s := range g.Fanout {
			want += props(t, l, cells[s]).InputCap
		}
		if g.PO {
			want += poLoad
		}
		if math.Float64bits(loads[g.ID]) != math.Float64bits(want) {
			t.Errorf("gate %s: load %.17g, want %.17g", g.Name, loads[g.ID], want)
		}
	}
}

// TestTableInternError checks that a cell the library cannot model
// fails InternAll with the gate's name and interns nothing.
func TestTableInternError(t *testing.T) {
	c := ckt.New("bad")
	a, _ := c.AddGate("a", ckt.Input)
	n, _ := c.AddGate("n1", ckt.Nand)
	if err := c.Connect(a, n); err != nil {
		t.Fatal(err)
	}
	tab := NewTable(lib(t))
	_, err := tab.InternAll(c, []Cell{{}, nomCell(ckt.Nand, 1)})
	if err == nil || !strings.Contains(err.Error(), "gate n1") {
		t.Fatalf("NAND1 interned with error %v, want one naming gate n1", err)
	}
	if id, err := tab.Intern(nomCell(ckt.Nand, 2)); err != nil || id != 0 {
		t.Fatalf("first good cell got ID %d (%v), want 0", id, err)
	}
	if _, err := tab.InternAll(c, []Cell{{}}); err == nil || !strings.Contains(err.Error(), "1 cells for 2 gates") {
		t.Fatalf("short cell list interned with error %v", err)
	}
	// A design variable that is not a finite positive number is refused
	// before the library is asked, and the table stays as it was.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1} {
		for k := 0; k < 4; k++ {
			cell := nomCell(ckt.Nand, 2)
			*[...]*float64{&cell.Size, &cell.L, &cell.VDD, &cell.Vth}[k] = v
			if id, err := tab.Intern(cell); err == nil {
				t.Fatalf("cell %+v interned as ID %d, want an error", cell, id)
			}
		}
	}
	if tab.Len() != 1 {
		t.Fatalf("table holds %d cells after refusals, want 1", tab.Len())
	}
}

// TestNominalAssignment checks that every logic gate gets the nominal
// cell of its own class at the given size, one ID per distinct cell.
func TestNominalAssignment(t *testing.T) {
	c := ckt.New("nom")
	a := c.MustAddGate("a", ckt.Input)
	n1 := c.MustAddGate("n1", ckt.Nand)
	n2 := c.MustAddGate("n2", ckt.Nand)
	inv := c.MustAddGate("inv", ckt.Not)
	for _, e := range [][2]int{{a, n1}, {a, n1}, {n1, n2}, {a, n2}, {n2, inv}} {
		c.MustConnect(e[0], e[1])
	}
	c.MarkPO(inv)
	asg, err := NominalAssignment(c, lib(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{n1, n2, inv} {
		want := nomCell(c.Gates[g].Type, len(c.Gates[g].Fanin))
		want.Size = 2
		if got := asg.Cell(g); got != want {
			t.Errorf("gate %s: cell %+v, want %+v", c.Gates[g].Name, got, want)
		}
	}
	if asg.IDs[a] != -1 || asg.IDs[n1] != asg.IDs[n2] || asg.T.Len() != 2 {
		t.Fatalf("IDs %v over %d cells; want -1 at the input and one NAND2 ID", asg.IDs, asg.T.Len())
	}
}
