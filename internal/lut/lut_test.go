package lut

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("no axes accepted")
	}
	if _, err := New([]float64{}); err == nil {
		t.Error("empty axis accepted")
	}
	if _, err := New([]float64{1, 1}); err == nil {
		t.Error("non-increasing axis accepted")
	}
	if _, err := New([]float64{2, 1}); err == nil {
		t.Error("decreasing axis accepted")
	}
}

func TestSetAtErrors(t *testing.T) {
	tb := MustNew([]float64{0, 1})
	if err := tb.Set([]int{0, 0}, 1); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := tb.Set([]int{5}, 1); err == nil {
		t.Error("out of range accepted")
	}
	if _, err := tb.At([]int{-1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := tb.Eval(1, 2); err == nil {
		t.Error("query rank mismatch accepted")
	}
}

func TestExactAtGridPoints1D(t *testing.T) {
	tb := MustNew([]float64{0, 1, 3, 7})
	tb.Fill(func(c []float64) float64 { return c[0] * c[0] })
	for _, x := range []float64{0, 1, 3, 7} {
		got := tb.MustEval(x)
		if math.Abs(got-x*x) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want %g", x, got, x*x)
		}
	}
}

func TestLinearBetweenPoints1D(t *testing.T) {
	tb := MustNew([]float64{0, 10})
	tb.Set([]int{0}, 100)
	tb.Set([]int{1}, 200)
	if got := tb.MustEval(2.5); math.Abs(got-125) > 1e-12 {
		t.Errorf("Eval(2.5) = %g, want 125", got)
	}
}

func TestClampOutsideGrid(t *testing.T) {
	tb := MustNew([]float64{0, 1})
	tb.Set([]int{0}, 5)
	tb.Set([]int{1}, 9)
	if got := tb.MustEval(-3); got != 5 {
		t.Errorf("below-grid Eval = %g, want 5", got)
	}
	if got := tb.MustEval(42); got != 9 {
		t.Errorf("above-grid Eval = %g, want 9", got)
	}
}

// A NaN coordinate is an error: it is neither below nor above an axis,
// and locating it used to index past a two-point axis.
func TestEvalRefusesNaN(t *testing.T) {
	tb := MustNew([]float64{0, 1}, []float64{0, 1})
	if v, err := tb.Eval(0.5, math.NaN()); err == nil {
		t.Fatalf("Eval at a NaN coordinate = %g, want an error", v)
	}
}

// Property: a multilinear table filled from a genuinely multilinear
// function reproduces it exactly everywhere inside the grid.
func TestMultilinearExactness3D(t *testing.T) {
	tb := MustNew([]float64{0, 1, 2}, []float64{-1, 1}, []float64{0, 5, 10})
	f := func(c []float64) float64 {
		return 3 + 2*c[0] - c[1] + 0.5*c[2] + c[0]*c[1] - 0.25*c[0]*c[2] + c[1]*c[2] + 0.1*c[0]*c[1]*c[2]
	}
	tb.Fill(f)
	prop := func(a, b, c uint8) bool {
		x := float64(a) / 255 * 2
		y := float64(b)/255*2 - 1
		z := float64(c) / 255 * 10
		got := tb.MustEval(x, y, z)
		want := f([]float64{x, y, z})
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: interpolation is bounded by the min/max of the cell's
// corner values (no overshoot).
func TestInterpolationBounded(t *testing.T) {
	tb := MustNew([]float64{0, 1, 2, 4}, []float64{0, 3})
	tb.Fill(func(c []float64) float64 { return math.Sin(c[0]*7) * math.Cos(c[1]*3) })
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			v, _ := tb.At([]int{i, j})
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	prop := func(a, b uint8) bool {
		x := float64(a) / 255 * 4
		y := float64(b) / 255 * 3
		v := tb.MustEval(x, y)
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSingleElementAxis(t *testing.T) {
	tb := MustNew([]float64{5}, []float64{0, 1})
	tb.Set([]int{0, 0}, 10)
	tb.Set([]int{0, 1}, 20)
	if got := tb.MustEval(99, 0.5); math.Abs(got-15) > 1e-12 {
		t.Errorf("single-axis Eval = %g, want 15", got)
	}
}

func TestEvalAtExactInnerGridPoint(t *testing.T) {
	tb := MustNew([]float64{0, 1, 2})
	tb.Set([]int{0}, 1)
	tb.Set([]int{1}, 5)
	tb.Set([]int{2}, 9)
	if got := tb.MustEval(1); math.Abs(got-5) > 1e-12 {
		t.Errorf("Eval at inner grid point = %g, want 5", got)
	}
	if got := tb.MustEval(2); math.Abs(got-9) > 1e-12 {
		t.Errorf("Eval at last grid point = %g, want 9", got)
	}
}

func TestInterp1D(t *testing.T) {
	xs := []float64{0, 10, 20}
	ys := []float64{0, 100, 400}
	cases := []struct{ x, want float64 }{
		{-5, 0}, {0, 0}, {5, 50}, {10, 100}, {15, 250}, {20, 400}, {99, 400},
	}
	for _, c := range cases {
		if got := Interp1D(xs, ys, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Interp1D(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if Interp1D(nil, nil, 1) != 0 {
		t.Error("empty Interp1D should return 0")
	}
	if Interp1D([]float64{3}, []float64{7}, 99) != 7 {
		t.Error("single-point Interp1D should return the point")
	}
}

func TestDimsAxis(t *testing.T) {
	tb := MustNew([]float64{0, 1}, []float64{2, 3, 4})
	if tb.Dims() != 2 {
		t.Errorf("Dims = %d", tb.Dims())
	}
	if len(tb.Axis(1)) != 3 {
		t.Errorf("Axis(1) len = %d", len(tb.Axis(1)))
	}
}

func TestPrepInterp1DMatchesInterp1D(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := []float64{3, -1, 0.5, 7, 2}
	queries := []float64{-5, 0, 1, 1.5, 2, 3.9999, 4, 4.0001, 8, 15, 16, 100}
	for _, x := range queries {
		want := func() float64 {
			n := len(xs)
			if x <= xs[0] || n == 1 {
				return ys[0]
			}
			if x >= xs[n-1] {
				return ys[n-1]
			}
			i := sort.SearchFloat64s(xs, x)
			if xs[i] == x {
				return ys[i]
			}
			i--
			f := (x - xs[i]) / (xs[i+1] - xs[i])
			return ys[i] + f*(ys[i+1]-ys[i])
		}()
		if got := Interp1D(xs, ys, x); got != want {
			t.Errorf("Interp1D(%g) = %g, want %g", x, got, want)
		}
		i, f := PrepInterp1D(xs, x)
		if got := ApplyInterp1D(ys, i, f); got != want {
			t.Errorf("ApplyInterp1D(%g) = %g, want %g", x, got, want)
		}
	}
	if i, _ := PrepInterp1D(nil, 1); i != -1 {
		t.Error("empty axis should return i=-1")
	}
	if got := ApplyInterp1D(ys, -1, -1); got != 0 {
		t.Error("empty-axis apply should return 0")
	}
}

// A NaN query has no place on an axis: PrepInterp1D must stay inside
// it, and the interpolation is NaN. It used to index one past the
// last sample.
func TestInterp1DNaN(t *testing.T) {
	for _, xs := range [][]float64{{0, 1}, {1, 2, 4, 8, 16}} {
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = float64(3 * i)
		}
		i, f := PrepInterp1D(xs, math.NaN())
		if i < 0 || i+1 >= len(xs) || !math.IsNaN(f) {
			t.Fatalf("PrepInterp1D(%v, NaN) = (%d, %g), want an interval of the axis and a NaN fraction", xs, i, f)
		}
		if got := ApplyInterp1D(ys, i, f); !math.IsNaN(got) {
			t.Fatalf("ApplyInterp1D at a NaN query = %g, want NaN", got)
		}
		if got := Interp1D(xs, ys, math.NaN()); !math.IsNaN(got) {
			t.Fatalf("Interp1D(%v, NaN) = %g, want NaN", xs, got)
		}
	}
}
