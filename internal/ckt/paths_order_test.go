package ckt_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/ckt"
	"repro/internal/gen"
)

// TestEnumeratePathsMatchesStableSort holds the bucket sort behind the
// path cap to sort.SliceStable on descending length over the same
// depth-first list: same paths, same order, ties in walk order. The
// generated DAGs are shallow and wide, so most paths tie in length.
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
	circuits = append(circuits, gen.C17())
	for _, name := range []string{"c432", "c880"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		for _, maxPaths := range []int{1, 2, 7, 64, 4096} {
			t.Run(fmt.Sprintf("%s/%d", c.Name, maxPaths), func(t *testing.T) {
				walked := c.WalkPaths(4 * maxPaths)
				want := append([]ckt.Path(nil), walked...)
				if len(want) > maxPaths {
					sort.SliceStable(want, func(i, j int) bool { return len(want[i]) > len(want[j]) })
					want = want[:maxPaths]
				}
				got := c.EnumeratePaths(maxPaths)
				if len(got) != len(want) {
					t.Fatalf("%d paths, want %d", len(got), len(want))
				}
				for j := range want {
					if !slices.Equal(got[j], want[j]) {
						t.Fatalf("path %d = %v, want %v", j, got[j], want[j])
					}
				}
			})
		}
	}
}
