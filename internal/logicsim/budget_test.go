package logicsim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// requireSameResult asserts two analyses are bit-identical in every
// statistic (floats compared exactly, not approximately).
func requireSameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if len(got.P1) != len(want.P1) || len(got.Activity) != len(want.Activity) || len(got.Pij) != len(want.Pij) {
		t.Fatalf("%s: result shape differs", label)
	}
	for id := range want.P1 {
		if got.P1[id] != want.P1[id] {
			t.Fatalf("%s: P1[%d] = %v, want %v", label, id, got.P1[id], want.P1[id])
		}
		if got.Activity[id] != want.Activity[id] {
			t.Fatalf("%s: Activity[%d] = %v, want %v", label, id, got.Activity[id], want.Activity[id])
		}
		if len(got.Pij[id]) != len(want.Pij[id]) {
			t.Fatalf("%s: Pij[%d] has %d columns, want %d", label, id, len(got.Pij[id]), len(want.Pij[id]))
		}
		for k := range want.Pij[id] {
			if got.Pij[id][k] != want.Pij[id][k] {
				t.Fatalf("%s: Pij[%d][%d] = %v, want %v", label, id, k, got.Pij[id][k], want.Pij[id][k])
			}
		}
	}
}

// TestAnalyzeBudgetBitIdentity proves the chunked analysis is
// bit-identical to the unbounded run at every budget, including
// budgets small enough to force one-word chunks and worker shedding,
// and with a vector count that exercises the final-chunk mask.
func TestAnalyzeBudgetBitIdentity(t *testing.T) {
	for _, name := range []string{"c432", "c880", "c1355"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		cc := engine.MustCompile(c)
		// 1000 vectors → 16 words with a 40-bit final mask.
		want, err := AnalyzeCompiledBudget(cc, 1000, stats.NewRNG(11), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		nGates := len(c.Gates)
		nEdges := cc.FaninEdgeOffsets()[nGates]
		perWord := int64(nGates+nEdges+nGates) * 8
		for _, budget := range []int64{1, perWord * 3, perWord * 100} {
			for _, workers := range []int{1, 3} {
				got, err := AnalyzeCompiledBudget(cc, 1000, stats.NewRNG(11), workers, budget)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, want, got, name)
			}
		}
		// The memoized default entry point must agree too (its 2 GiB
		// budget keeps this workload in a single chunk).
		got, err := Sensitization(cc, 1000, 11)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got, name+" default budget")
	}
}
