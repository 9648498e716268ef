package logicsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
)

// TestSensitizationRecycledArenas runs analyses back to back in one
// arena set, each starting from what the one before left in it, and
// holds every result to the literal per-vector oracle: c7552, then
// c17 (a set far too big, full of another circuit's rows, marks and
// counts), then c432 under a budget that forces one-word chunks, then
// c7552 again (a set last laid out for smaller circuits and other
// chunk widths). Both c7552 runs walk the POs in one order on one
// worker, so a gate that only one PO reaches holds, from the first
// run, the mark the second run would give it: only an epoch carried
// over tells the two apart. Then several goroutines analyze a mix of
// the same circuits at once through the shared pool.
func TestSensitizationRecycledArenas(t *testing.T) {
	type run struct {
		name    string
		n       int
		workers int
		budget  int64
	}
	// c7552 keeps few vectors: the oracle costs O(vectors·gates·edges).
	runs := []run{
		{"c7552", 2, 1, 0},
		{"c17", 100, 0, 0},
		{"c432", 300, 0, 1},
		{"c7552", 2, 1, 0},
	}
	const seed = 9
	type key struct {
		name string
		n    int
	}
	ccs := map[string]*engine.CompiledCircuit{}
	want := map[key]*Result{}
	for _, r := range runs {
		if ccs[r.name] == nil {
			c, err := gen.ISCAS85(r.name)
			if err != nil {
				t.Fatal(err)
			}
			ccs[r.name] = engine.MustCompile(c)
		}
		k := key{r.name, r.n}
		if want[k] == nil {
			want[k] = literalSensitization(t, ccs[r.name].Circuit(), r.n, seed)
		}
	}

	ar := new(sensArena)
	for i, r := range runs {
		got, err := ar.analyze(ccs[r.name], r.n, stats.NewRNG(seed), r.workers, r.budget)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want[key{r.name, r.n}], got, fmt.Sprintf("run %d (%s, N=%d)", i, r.name, r.n))
	}

	const callers, calls = 4, 3
	got := make([][]*Result, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				r := runs[(g+i)%len(runs)]
				res, err := AnalyzeCompiledBudget(ccs[r.name], r.n, stats.NewRNG(seed), r.workers, r.budget)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, res := range got[g] {
			r := runs[(g+i)%len(runs)]
			requireSameResult(t, want[key{r.name, r.n}], res, fmt.Sprintf("caller %d call %d (%s)", g, i, r.name))
		}
	}
}
