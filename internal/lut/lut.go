// Package lut implements the N-dimensional lookup tables with linear
// interpolation that ASERTA uses in place of analytical models
// ("ASERTA uses linear-interpolation inside the look-up tables to
// compute output values for arbitrary values of input parameters").
package lut

import (
	"fmt"
	"math"
	"sort"
)

// Table is an N-dimensional grid of float64 samples with multilinear
// interpolation. Queries outside the grid are clamped to the edge
// (characterization grids are chosen to cover the design space, so
// clamping only smooths pathological queries).
type Table struct {
	// axes[d] holds the strictly increasing sample coordinates of
	// dimension d.
	axes [][]float64
	// data is row-major over the axes: index = Σ idx[d] * stride[d].
	data    []float64
	strides []int
}

// New builds a table over the given axes. Each axis must be strictly
// increasing and non-empty. Values are supplied afterwards with Set or
// Fill.
func New(axes ...[]float64) (*Table, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("lut: no axes")
	}
	t := &Table{axes: make([][]float64, len(axes)), strides: make([]int, len(axes))}
	size := 1
	for d, ax := range axes {
		if len(ax) == 0 {
			return nil, fmt.Errorf("lut: axis %d empty", d)
		}
		for i := 1; i < len(ax); i++ {
			if ax[i] <= ax[i-1] {
				return nil, fmt.Errorf("lut: axis %d not strictly increasing at %d (%g <= %g)", d, i, ax[i], ax[i-1])
			}
		}
		t.axes[d] = append([]float64(nil), ax...)
		size *= len(ax)
	}
	stride := 1
	for d := len(axes) - 1; d >= 0; d-- {
		t.strides[d] = stride
		stride *= len(axes[d])
	}
	t.data = make([]float64, size)
	return t, nil
}

// MustNew is New that panics on error; for hard-coded grids.
func MustNew(axes ...[]float64) *Table {
	t, err := New(axes...)
	if err != nil {
		panic(err)
	}
	return t
}

// Dims returns the number of dimensions.
func (t *Table) Dims() int { return len(t.axes) }

// Axis returns the sample coordinates of dimension d.
func (t *Table) Axis(d int) []float64 { return t.axes[d] }

// Set stores a sample at the given grid indices.
func (t *Table) Set(idx []int, v float64) error {
	off, err := t.offset(idx)
	if err != nil {
		return err
	}
	t.data[off] = v
	return nil
}

// At returns the stored sample at the given grid indices.
func (t *Table) At(idx []int) (float64, error) {
	off, err := t.offset(idx)
	if err != nil {
		return 0, err
	}
	return t.data[off], nil
}

func (t *Table) offset(idx []int) (int, error) {
	if len(idx) != len(t.axes) {
		return 0, fmt.Errorf("lut: index rank %d, table rank %d", len(idx), len(t.axes))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= len(t.axes[d]) {
			return 0, fmt.Errorf("lut: index %d out of range on axis %d (len %d)", i, d, len(t.axes[d]))
		}
		off += i * t.strides[d]
	}
	return off, nil
}

// Fill evaluates f at every grid point and stores the result. The
// callback receives the coordinate vector (not indices).
func (t *Table) Fill(f func(coord []float64) float64) {
	idx := make([]int, len(t.axes))
	coord := make([]float64, len(t.axes))
	for {
		for d, i := range idx {
			coord[d] = t.axes[d][i]
		}
		off := 0
		for d, i := range idx {
			off += i * t.strides[d]
		}
		t.data[off] = f(coord)
		// Odometer increment.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(t.axes[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// locate finds the cell index and interpolation fraction for query x
// on axis d, clamping to the edges.
func (t *Table) locate(d int, x float64) (int, float64) {
	ax := t.axes[d]
	n := len(ax)
	if n == 1 || x <= ax[0] {
		return 0, 0
	}
	if x >= ax[n-1] {
		if n >= 2 {
			return n - 2, 1
		}
		return 0, 0
	}
	// sort.SearchFloat64s returns the first i with ax[i] >= x.
	i := sort.SearchFloat64s(ax, x)
	if i > 0 && ax[i] != x {
		i--
	} else if ax[i] == x {
		if i == n-1 {
			return i - 1, 1
		}
		return i, 0
	}
	frac := (x - ax[i]) / (ax[i+1] - ax[i])
	return i, frac
}

// Eval interpolates the table at the query coordinates, multilinearly
// across all dimensions, clamping out-of-range queries to the grid
// boundary. A NaN coordinate has no place on an axis and is an error.
func (t *Table) Eval(coord ...float64) (float64, error) {
	if len(coord) != len(t.axes) {
		return 0, fmt.Errorf("lut: query rank %d, table rank %d", len(coord), len(t.axes))
	}
	nd := len(t.axes)
	base := make([]int, nd)
	frac := make([]float64, nd)
	for d, x := range coord {
		if math.IsNaN(x) {
			return 0, fmt.Errorf("lut: query coordinate %d is NaN", d)
		}
		base[d], frac[d] = t.locate(d, x)
	}
	// Sum over the 2^nd corners of the enclosing cell.
	total := 0.0
	for corner := 0; corner < 1<<uint(nd); corner++ {
		w := 1.0
		off := 0
		for d := 0; d < nd; d++ {
			hi := corner>>uint(d)&1 == 1
			i := base[d]
			if hi {
				w *= frac[d]
				if i+1 < len(t.axes[d]) {
					i++
				}
			} else {
				w *= 1 - frac[d]
			}
			off += i * t.strides[d]
		}
		if w != 0 {
			total += w * t.data[off]
		}
	}
	return total, nil
}

// MustEval is Eval that panics on rank mismatch.
func (t *Table) MustEval(coord ...float64) float64 {
	v, err := t.Eval(coord...)
	if err != nil {
		panic(err)
	}
	return v
}

// Interp1D performs simple linear interpolation of y(x) over sample
// arrays xs (increasing) and ys, clamping beyond the ends. It is the
// one-dimensional workhorse used for the paper's sample-glitch-width
// tables (§3.2 step iv).
func Interp1D(xs, ys []float64, x float64) float64 {
	i, f := PrepInterp1D(xs, x)
	return ApplyInterp1D(ys, i, f)
}

// PrepInterp1D resolves the x-dependent half of Interp1D — the sample
// search and interpolation fraction — so hot loops that interpolate
// many y-arrays over the same axis at the same query can pay for the
// search once. The returned (i, f) feed ApplyInterp1D; f < 0 encodes
// "return ys[i] exactly" (clamped or on-sample queries), and i < 0
// encodes an empty axis. Interp1D(xs, ys, x) ==
// ApplyInterp1D(ys, PrepInterp1D(xs, x)) bit for bit. A NaN query,
// which no comparison places, lands in the last interval with a NaN
// fraction, so the interpolation is NaN.
func PrepInterp1D(xs []float64, x float64) (int, float64) {
	n := len(xs)
	if n == 0 {
		return -1, -1
	}
	if x <= xs[0] || n == 1 {
		return 0, -1
	}
	if x >= xs[n-1] {
		return n - 1, -1
	}
	// x < xs[n-1] here unless x is NaN, so searching all but the last
	// sample finds the same i for every other query, and n-1 for NaN.
	i := sort.SearchFloat64s(xs[:n-1], x)
	if xs[i] == x {
		return i, -1
	}
	i--
	return i, (x - xs[i]) / (xs[i+1] - xs[i])
}

// ApplyInterp1D evaluates a prepared interpolation against one
// y-array.
func ApplyInterp1D(ys []float64, i int, f float64) float64 {
	if i < 0 {
		return 0
	}
	if f < 0 {
		return ys[i]
	}
	return ys[i] + f*(ys[i+1]-ys[i])
}
