package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce a stuck stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Uniformish(t *testing.T) {
	r := NewRNG(11)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %g, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d count %d far from uniform", b, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sq += x * x
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %g", variance)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %g", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson(nil, nil) != 0 {
		t.Error("empty series should give 0")
	}
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Error("mismatched lengths should give 0")
	}
	if Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Error("constant series should give 0")
	}
}

// Property: correlation is symmetric and bounded in [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 3 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		a := Pearson(xs, ys)
		b := Pearson(ys, xs)
		return math.Abs(a-b) < 1e-12 && a >= -1-1e-12 && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanSum(t *testing.T) {
	if Sum(nil) != 0 {
		t.Error("empty sum should be 0")
	}
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Errorf("Sum=%g", got)
	}
}

func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v, want 0", got)
	}
	xs := []float64{5, 1, 3, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	// Interpolation: quartile of [1..5] at q=0.25 is 2.
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q0.25 = %v, want 2", got)
	}
	// Input must be left unsorted (copied internally).
	if xs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
	two := []float64{10, 20}
	if got := Quantile(two, 0.75); got != 17.5 {
		t.Fatalf("q0.75 of {10,20} = %v, want 17.5", got)
	}
}
