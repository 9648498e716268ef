package sertopt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
)

// TestNullspaceMatchesFullReduction holds Topology.Nullspace, which
// reduces only T's leading columns, each distinct row once, and stops
// at the maxBasis-th free column, to the full row-by-row reduction of
// the dense T truncated to maxBasis (requireNullspaceMatches).
func TestNullspaceMatchesFullReduction(t *testing.T) {
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pathCap := range []int{64, 512, 0} {
			tp, err := BuildTopology(c, pathCap)
			if err != nil {
				t.Fatal(err)
			}
			full := tp.T().Nullspace()
			for _, maxBasis := range []int{1, 5, 6, 8, 16, 40, 0} {
				// maxBasis 0 repeats the reference's full reduction;
				// past c1908's 880 columns that only costs time.
				if maxBasis == 0 && len(tp.GateOf) > 880 {
					continue
				}
				t.Run(fmt.Sprintf("%s/paths%d/basis%d", name, len(tp.Paths), maxBasis), func(t *testing.T) {
					requireNullspaceMatches(t, tp, full, maxBasis)
				})
			}
		}
	}

	// A netlist whose second vector holds a residue below the pivot
	// tolerance: a stop that ignored it would read the entry as 0.
	c, err := gen.Generate(gen.Profile{Name: "residue", PIs: 11, POs: 3, Gates: 69, Depth: 9, Seed: 7, MaxFanin: 5})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := BuildTopology(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := tp.T().Nullspace()
	if v := full[1][59]; v == 0 || math.Abs(v) > 1e-10 {
		t.Fatalf("vector 1 entry 59 = %g, want a nonzero residue below 1e-10; the case no longer covers the exactness guard", v)
	}
	requireNullspaceMatches(t, tp, full, 2)
}

// FuzzTopologyNullspace holds Topology.Nullspace to the full reduction
// of the dense T on generated netlists of fuzzed shape, flop count and
// seed, at a fuzzed path cap (0 is the default, 4,096) and basis size.
// Its first seeds are two of FuzzEnumeratePaths'; the third is the
// residue netlist of TestNullspaceMatchesFullReduction.
func FuzzTopologyNullspace(f *testing.F) {
	f.Add(uint8(10), uint8(5), uint8(54), uint8(3), uint8(4), uint8(0), uint64(1), uint16(64), uint8(8))
	f.Add(uint8(14), uint8(9), uint8(190), uint8(12), uint8(3), uint8(0), uint64(3), uint16(512), uint8(5))
	f.Add(uint8(9), uint8(2), uint8(66), uint8(9), uint8(5), uint8(0), uint64(7), uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, pis, pos, gates, depth, fanin, flops uint8, seed uint64, maxPaths uint16, maxBasis uint8) {
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
		tp, err := BuildTopology(c, int(maxPaths%1024))
		if err != nil {
			t.Skip(err)
		}
		requireNullspaceMatches(t, tp, tp.T().Nullspace(), int(maxBasis%24))
	})
}

// requireNullspaceMatches checks tp.Nullspace(maxBasis) against full,
// the full reduction of tp.T(), truncated to maxBasis: the same vector
// count, == entries at every gate's column and zeros at the primary
// inputs. == rather than equal bits: at a pivot column found after the
// stop the full reduction negates an exact zero into -0, while the
// early-stopped vector holds +0 there (as it does in the zeros padded
// past the reduced columns); no use of the basis can tell the two
// apart.
func requireNullspaceMatches(t *testing.T, tp *Topology, full [][]float64, maxBasis int) {
	t.Helper()
	want := full
	if maxBasis > 0 && len(want) > maxBasis {
		want = want[:maxBasis]
	}
	got := tp.Nullspace(maxBasis)
	if len(got) != len(want) {
		t.Fatalf("maxBasis %d: %d vectors, want %d", maxBasis, len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(tp.Col) {
			t.Fatalf("maxBasis %d: vector %d has %d entries, want one per gate (%d)", maxBasis, k, len(got[k]), len(tp.Col))
		}
		for id, col := range tp.Col {
			w := 0.0
			if col >= 0 {
				w = want[k][col]
			}
			if got[k][id] != w {
				t.Fatalf("maxBasis %d: vector %d differs at gate %d (column %d): %g vs %g", maxBasis, k, id, col, got[k][id], w)
			}
		}
	}
}
