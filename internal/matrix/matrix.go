// Package matrix provides the small dense linear-algebra kernel
// SERTOPT needs: matrix/vector arithmetic, reduced row echelon form,
// nullspace bases (for the delay-assignment variation Δ with T·Δ = 0)
// and least squares. One row reduction serves them all; for the
// optimizer, which keeps only a basis's first vectors, it can stop
// early: LeadingNullspace reduces just the leading columns of a 0/1
// matrix those vectors read.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("matrix: empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("matrix: ragged row %d (%d vs %d)", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:], r)
	}
	return m, nil
}

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone deep-copies the matrix.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// MulVec returns m · x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("matrix: MulVec dim %d vs %d cols", len(x), m.cols)
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// rowViews returns views of m's rows into its data.
func (m *Dense) rowViews() [][]float64 {
	rows := make([][]float64, m.rows)
	for i := range rows {
		rows[i] = m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
	}
	return rows
}

// rref reduces the n-column matrix whose rows are rows in place to
// reduced row echelon form, moving rows by swapping the slices, and
// returns the pivot column of each pivot row. With stopAt > 0 it stops
// right after the stopAt-th free column, and reports stopped, if every
// free column so far held exact zeros in all rows that were not yet
// pivot rows (see LeadingNullspace for why that makes the stop exact).
//
// Rows with equal entries may share one slice, which shared (nil when
// none do) marks. A row gets a slice of its own when it becomes a
// pivot row, before it is normalized. The elimination then updates a
// shared slice once: its first row leaves f − f·1 = 0 in the pivot
// column, since the pivot is pv/pv = 1, and the other rows read that
// 0 and skip, as any zero row does. So every row holds the values an
// unshared reduction computes, by the same operations.
func rref(rows [][]float64, shared []bool, n int, eps float64, stopAt int) (pivots []int, stopped bool) {
	r, free, exact := 0, 0, true
	for c := 0; c < n; c++ {
		// Partial pivoting. The same scan sees whether the rows below
		// the pivot rows hold exact zeros in column c.
		best, bestAbs, zero := -1, eps, true
		for i := r; i < len(rows); i++ {
			a := math.Abs(rows[i][c])
			if a > bestAbs {
				best, bestAbs = i, a
			}
			if a != 0 {
				zero = false
			}
		}
		if best < 0 {
			free++
			exact = exact && zero
			if free == stopAt && exact {
				return pivots, true
			}
			continue
		}
		rows[r], rows[best] = rows[best], rows[r]
		if shared != nil {
			shared[r], shared[best] = shared[best], shared[r]
			if shared[r] {
				rows[r], shared[r] = append([]float64(nil), rows[r]...), false
			}
		}
		// Normalize pivot row.
		pr := rows[r]
		pv := pr[c]
		for j := c; j < n; j++ {
			pr[j] /= pv
		}
		// Eliminate column c from all other rows.
		for i, ri := range rows {
			if i == r {
				continue
			}
			f := ri[c]
			if f == 0 {
				continue
			}
			for j := c; j < n; j++ {
				ri[j] -= f * pr[j]
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots, false
}

// pivotEps is the magnitude at or below which the row reduction
// treats an entry as zero when it looks for a pivot.
const pivotEps = 1e-10

// leadWidth is LeadingNullspace's first block width per requested
// vector: the first block holds leadWidth·maxBasis columns.
const leadWidth = 8

// Nullspace returns an orthonormal-ish basis (columns are unit-norm
// but not mutually orthogonalized) of {x : m·x = 0}, computed from the
// RREF free variables. The result has one []float64 per basis vector,
// each of length Cols(). An empty result means the nullspace is {0}.
func (m *Dense) Nullspace() [][]float64 {
	rows := m.Clone().rowViews()
	pivots, _ := rref(rows, nil, m.cols, pivotEps, 0)
	return basis(rows, m.cols, pivots, 0, m.cols)
}

// LeadingNullspace returns the first maxBasis vectors (every vector
// for maxBasis <= 0) of Nullspace's basis of the rows×cols 0/1 matrix
// whose row i has ones at the columns ones[i], each 0 <= j < cols.
// Every entry is == to Nullspace's truncated to maxBasis; a zero may
// differ in sign.
//
// It row-reduces only the leading w columns, starting at
// w = leadWidth·maxBasis and doubling w until the reduction stops
// exactly or w = cols. Two facts make the truncated reduction exact.
// Column j of the reduction depends only on columns <= j: the pivot
// search at column c reads column c, and every update of entry (i, j)
// reads column c and entry j of the pivot row. And the vector of free
// column f reads column f of the pivot rows, which no step after f
// writes, since each step updates only the columns from its own pivot
// column on; a pivot row found after f holds there whatever its row
// held at f's step. So when every one of the first maxBasis free
// columns held exact zeros in the rows that were not yet pivot rows,
// the later pivot rows contribute zeros, and the reduction may stop at
// the maxBasis-th free column. A nonzero residue at or below the pivot
// tolerance keeps it going.
//
// Rows equal on the leading columns are built once and share one
// slice, so the reduction updates each distinct row once (see rref);
// every row still holds the values of the unshared reduction.
func LeadingNullspace(ones [][]int, cols, maxBasis int) [][]float64 {
	w := cols
	if maxBasis > 0 {
		w = min(cols, leadWidth*maxBasis)
	}
	for {
		rows, shared := leadingBlock(ones, w)
		pivots, stopped := rref(rows, shared, w, pivotEps, maxBasis)
		if stopped || w == cols {
			return basis(rows, w, pivots, maxBasis, cols)
		}
		w = min(cols, 2*w)
	}
}

// leadingBlock returns the rows of the first w columns of the 0/1
// matrix whose row i has ones at the columns ones[i]. Rows equal on
// those columns share one slice and are marked shared: at the default
// path cap a path matrix has 4,096 rows, but its first 64 columns
// hold only a few hundred distinct ones.
func leadingBlock(ones [][]int, w int) (rows [][]float64, shared []bool) {
	key := make([]byte, (w+7)/8)
	index := make(map[string]int)
	group := make([]int, len(ones))
	var size []int
	for i, row := range ones {
		clear(key)
		for _, j := range row {
			if j < w {
				key[j/8] |= 1 << (j % 8)
			}
		}
		g, ok := index[string(key)]
		if !ok {
			g = len(size)
			index[string(key)] = g
			size = append(size, 0)
		}
		group[i] = g
		size[g]++
	}
	data := make([]float64, len(size)*w)
	rows = make([][]float64, len(ones))
	shared = make([]bool, len(ones))
	for i, row := range ones {
		g := group[i]
		rows[i] = data[g*w : (g+1)*w : (g+1)*w]
		shared[i] = size[g] > 1
		for _, j := range row {
			if j < w {
				rows[i][j] = 1
			}
		}
	}
	return rows, shared
}

// basis returns the unit-norm nullspace vectors of the first n free
// columns (every free column for n <= 0) of the reduced w-column rows
// with the given pivots, each of length cols >= w: entries past w are
// zero.
func basis(rows [][]float64, w int, pivots []int, n, cols int) [][]float64 {
	isPivot := make([]bool, w)
	for _, c := range pivots {
		isPivot[c] = true
	}
	var out [][]float64
	for c := 0; c < w && (n <= 0 || len(out) < n); c++ {
		if isPivot[c] {
			continue
		}
		v := make([]float64, cols)
		v[c] = 1
		for row, pc := range pivots {
			v[pc] = -rows[row][c]
		}
		// Normalize for numerical hygiene.
		norm := 0.0
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for i := range v {
				v[i] /= norm
			}
		}
		out = append(out, v)
	}
	return out
}

// Rank returns the numerical rank at tolerance 1e-10.
func (m *Dense) Rank() int {
	pivots, _ := rref(m.Clone().rowViews(), nil, m.cols, pivotEps, 0)
	return len(pivots)
}

// LeastSquares solves min ‖A·x − b‖₂ via normal equations with
// Tikhonov damping (A is assumed reasonably conditioned; damping
// stabilizes rank-deficient systems).
func LeastSquares(a *Dense, b []float64, damp float64) ([]float64, error) {
	if len(b) != a.rows {
		return nil, fmt.Errorf("matrix: LeastSquares rhs dim %d vs %d rows", len(b), a.rows)
	}
	n := a.cols
	// ata = AᵀA + damp·I ; atb = Aᵀb.
	ata := NewDense(n, n)
	atb := make([]float64, n)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < n; j++ {
			if row[j] == 0 {
				continue
			}
			atb[j] += row[j] * b[i]
			for k := 0; k < n; k++ {
				ata.data[j*n+k] += row[j] * row[k]
			}
		}
	}
	for j := 0; j < n; j++ {
		ata.data[j*n+j] += damp
	}
	return SolveSPD(ata, atb)
}

// SolveSPD solves a symmetric positive-definite system via Cholesky.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n || len(b) != n {
		return nil, fmt.Errorf("matrix: SolveSPD shape mismatch")
	}
	// Cholesky factorization a = L·Lᵀ.
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("matrix: not positive definite at %d (%g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AddScaled computes dst += f·src in place.
func AddScaled(dst []float64, f float64, src []float64) {
	for i := range dst {
		dst[i] += f * src[i]
	}
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}
