package ckt_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/ckt"
	"repro/internal/gen"
)

// TestEnumeratePathsMatchesStableSort holds EnumeratePaths to its
// literal definition: the depth-first walk's first 4·maxPaths paths,
// cut to the maxPaths longest by sort.SliceStable on descending length
// when there are more — same paths, same order, ties in walk order.
// The generated DAGs are shallow and wide, so most paths tie in
// length; the ISCAS-89 profiles stop walks at flops and have PO gates
// that feed flops; the XOR ladder has 2^80 paths, so its counts must
// saturate rather than wrap, and POs tapped along it record paths
// that walk on; and a primary input that is also a primary output
// gives a path of no gates.
func TestEnumeratePathsMatchesStableSort(t *testing.T) {
	var circuits []*ckt.Circuit
	for i, p := range []gen.Profile{
		{Name: "flat", PIs: 12, POs: 6, Gates: 60, Depth: 3, Seed: 1, MaxFanin: 4},
		{Name: "ties", PIs: 8, POs: 8, Gates: 120, Depth: 5, Seed: 2, MaxFanin: 3},
		{Name: "deep", PIs: 16, POs: 10, Gates: 200, Depth: 12, Seed: 3, MaxFanin: 3},
	} {
		c, err := gen.Generate(p)
		if err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		circuits = append(circuits, c)
	}
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, name := range []string{"s27", "s298", "s1196"} {
		c, err := gen.ISCAS89(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	circuits = append(circuits, xorLadder(), inputIsOutput())
	for _, c := range circuits {
		for _, maxPaths := range []int{1, 2, 7, 64, 4096} {
			t.Run(fmt.Sprintf("%s/%d", c.Name, maxPaths), func(t *testing.T) {
				requireEnumerateMatches(t, c, maxPaths)
			})
		}
	}
}

// FuzzEnumeratePaths holds EnumeratePaths to the stable sort of the
// walk on generated netlists of fuzzed shape, flop count and seed, at a
// fuzzed cap (0, no cap, only where the netlist has few paths; there
// CountPaths must also count the walk's paths).
func FuzzEnumeratePaths(f *testing.F) {
	f.Add(uint8(12), uint8(6), uint8(60), uint8(3), uint8(4), uint8(0), uint64(1), uint16(7))
	f.Add(uint8(16), uint8(10), uint8(200), uint8(12), uint8(3), uint8(0), uint64(3), uint16(64))
	f.Add(uint8(5), uint8(3), uint8(90), uint8(9), uint8(5), uint8(4), uint64(9), uint16(0))
	f.Fuzz(func(t *testing.T, pis, pos, gates, depth, fanin, flops uint8, seed uint64, maxPaths uint16) {
		p := gen.Profile{
			Name:     "fuzz",
			PIs:      2 + int(pis%16),
			POs:      1 + int(pos%12),
			Depth:    int(depth % 24),
			MaxFanin: int(fanin % 7),
			Flops:    int(flops % 6),
			Seed:     seed,
		}
		p.Gates = p.POs + int(gates)
		c, err := gen.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		n := int(maxPaths % 600)
		if n == 0 {
			if count := c.CountPaths(); count > 1<<14 {
				n = 1 + int(maxPaths%97)
			} else if walked := len(c.WalkPaths(0)); count != int64(walked) {
				t.Fatalf("CountPaths = %d, the walk records %d", count, walked)
			}
		}
		requireEnumerateMatches(t, c, n)
	})
}

// requireEnumerateMatches compares EnumeratePaths(maxPaths) with the
// stable sort of the walk's first 4·maxPaths paths.
func requireEnumerateMatches(t *testing.T, c *ckt.Circuit, maxPaths int) {
	t.Helper()
	walked := c.WalkPaths(4 * maxPaths)
	want := append([]ckt.Path(nil), walked...)
	if maxPaths > 0 && len(want) > maxPaths {
		sort.SliceStable(want, func(i, j int) bool { return len(want[i]) > len(want[j]) })
		want = want[:maxPaths]
	}
	got := c.EnumeratePaths(maxPaths)
	if len(got) != len(want) {
		t.Fatalf("%s cap %d: %d paths, want %d", c.Name, maxPaths, len(got), len(want))
	}
	for j := range want {
		if !slices.Equal(got[j], want[j]) {
			t.Fatalf("%s cap %d: path %d = %v, want %v", c.Name, maxPaths, j, got[j], want[j])
		}
	}
}

// xorLadder is TestCountPathsSaturates' ladder of 80 XOR pairs, 2^80
// paths, with a primary output tapped every ninth level as well as at
// the top.
func xorLadder() *ckt.Circuit {
	c := ckt.New("ladder")
	prev1 := c.MustAddGate("a", ckt.Input)
	prev2 := c.MustAddGate("b", ckt.Input)
	for i := 0; i < 80; i++ {
		g1 := c.MustAddGate(fmt.Sprintf("x%d", i), ckt.Xor)
		g2 := c.MustAddGate(fmt.Sprintf("y%d", i), ckt.Xor)
		c.MustConnect(prev1, g1)
		c.MustConnect(prev2, g1)
		c.MustConnect(prev1, g2)
		c.MustConnect(prev2, g2)
		if i%9 == 4 {
			c.MarkPO(g2)
		}
		prev1, prev2 = g1, g2
	}
	c.MarkPO(prev1)
	return c
}

// inputIsOutput is a netlist whose primary input a is also a primary
// output, which the walk records as a path of no gates before it walks
// on through a's fanout.
func inputIsOutput() *ckt.Circuit {
	c := ckt.New("pi-po")
	a := c.MustAddGate("a", ckt.Input)
	b := c.MustAddGate("b", ckt.Input)
	n := c.MustAddGate("n", ckt.Nand)
	c.MustConnect(a, n)
	c.MustConnect(b, n)
	inv := c.MustAddGate("inv", ckt.Not)
	c.MustConnect(n, inv)
	o := c.MustAddGate("o", ckt.Or)
	c.MustConnect(a, o)
	c.MustConnect(inv, o)
	c.MarkPO(a)
	c.MarkPO(inv)
	c.MarkPO(o)
	return c
}
