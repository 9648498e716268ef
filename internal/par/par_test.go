package par

import "testing"

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 1000
		got := make([]int, n)
		For(n, workers, func(i int) { got[i]++ })
		for i, c := range got {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestEachWorkerIndexInRange(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		for _, grain := range []int{0, 1, 7, 1000} {
			n := 123
			got := make([]int, n)
			Each(n, workers, grain, func(w, lo, hi int) {
				if w < 0 || w >= Workers(workers) {
					t.Errorf("workers=%d grain=%d: worker index %d out of range", workers, grain, w)
				}
				for i := lo; i < hi; i++ {
					got[i]++
				}
			})
			for i, c := range got {
				if c != 1 {
					t.Fatalf("workers=%d grain=%d: index %d ran %d times", workers, grain, i, c)
				}
			}
		}
	}
}

func TestZeroItems(t *testing.T) {
	For(0, 4, func(int) { t.Fatal("called") })
	Each(0, 4, 0, func(int, int, int) { t.Fatal("called") })
}
