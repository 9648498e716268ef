package sertopt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
)

// TestNullspaceMatchesFullReduction holds Topology.Nullspace, which
// reduces only T's leading columns and stops at the maxBasis-th free
// column, to the full reduction of the dense T truncated to maxBasis:
// the same vector count, == entries at every gate's column and zeros
// at the primary inputs. == rather than equal bits: at
// a pivot column found after the stop the full reduction negates an
// exact zero into -0, while the early-stopped vector holds +0 there
// (as it does in the zeros padded past the reduced columns); no use of
// the basis can tell the two apart.
func TestNullspaceMatchesFullReduction(t *testing.T) {
	check := func(t *testing.T, tp *Topology, full [][]float64, maxBasis int) {
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
					check(t, tp, full, maxBasis)
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
	check(t, tp, full, 2)
}
