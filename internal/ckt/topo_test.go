package ckt

import (
	"testing"
	"testing/quick"
)

func TestTopoOrderProperty(t *testing.T) {
	c := buildC17(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(c.Gates))
	for i, id := range order {
		pos[id] = i
	}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			if pos[f] >= pos[g.ID] {
				t.Fatalf("fanin %d after gate %d in topo order", f, g.ID)
			}
		}
	}
}

func TestReverseTopoOrder(t *testing.T) {
	c := buildC17(t)
	order, err := c.ReverseTopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(c.Gates))
	for i, id := range order {
		pos[id] = i
	}
	for _, g := range c.Gates {
		for _, s := range g.Fanout {
			if pos[s] >= pos[g.ID] {
				t.Fatalf("fanout %d after gate %d in reverse topo order", s, g.ID)
			}
		}
	}
}

func TestLevelsC17(t *testing.T) {
	c := buildC17(t)
	lv := c.Levels()
	for _, pi := range c.Inputs() {
		if lv[pi] != 0 {
			t.Errorf("PI %d at level %d", pi, lv[pi])
		}
	}
	id22, _ := c.GateByName("22")
	id23, _ := c.GateByName("23")
	if lv[id22] != 3 || lv[id23] != 3 {
		t.Errorf("PO levels = %d,%d, want 3,3", lv[id22], lv[id23])
	}
	id10, _ := c.GateByName("10")
	if lv[id10] != 1 {
		t.Errorf("gate 10 level = %d, want 1", lv[id10])
	}
}

func TestDepthFromPO(t *testing.T) {
	c := buildC17(t)
	d := c.DepthFromPO()
	id22, _ := c.GateByName("22")
	if d[id22] != 0 {
		t.Errorf("PO depth = %d, want 0", d[id22])
	}
	id10, _ := c.GateByName("10")
	if d[id10] != 1 {
		t.Errorf("gate 10 depth = %d, want 1", d[id10])
	}
	id11, _ := c.GateByName("11")
	if d[id11] != 2 {
		t.Errorf("gate 11 depth = %d, want 2", d[id11])
	}
}

// Property: on random DAGs built by wiring each gate only to
// lower-numbered gates, TopoOrder always succeeds and respects edges.
func TestTopoOrderRandomDAGs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := seed
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		c := New("rand")
		nPI := 3 + next(4)
		for i := 0; i < nPI; i++ {
			c.MustAddGate(name("i", i), Input)
		}
		nG := 5 + next(20)
		for i := 0; i < nG; i++ {
			g := c.MustAddGate(name("g", i), Nand)
			// Wire to 2 distinct earlier nodes.
			a := next(len(c.Gates) - 1)
			b := next(len(c.Gates) - 1)
			if b == a {
				b = (b + 1) % (len(c.Gates) - 1)
			}
			c.MustConnect(a, g)
			c.MustConnect(b, g)
		}
		c.MarkPO(len(c.Gates) - 1)
		order, err := c.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, len(c.Gates))
		for i, id := range order {
			pos[id] = i
		}
		for _, g := range c.Gates {
			for _, fi := range g.Fanin {
				if pos[fi] >= pos[g.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func name(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}
