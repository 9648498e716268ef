// Package matrix provides the small dense linear-algebra kernel
// SERTOPT needs: matrix/vector arithmetic, reduced row echelon form,
// nullspace bases (for the delay-assignment variation Δ with T·Δ = 0)
// and least squares. Dense reduces row by row. For the optimizer,
// which keeps only a basis's first vectors of a 0/1 matrix whose rows
// repeat, LeadingNullspace reduces just the leading columns those
// vectors read, each distinct row once, to the same values.
package matrix

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
// reduced row echelon form, row by row: partial pivoting picks the
// first row of largest magnitude at or below the pivot rows, and rows
// move by swapping the slices. It returns the pivot column of each
// pivot row; pivot row k is rows[k]. It is the plain reduction that
// LeadingNullspace's grouped one is held to.
func rref(rows [][]float64, n int, eps float64) (pivots []int) {
	r := 0
	for c := 0; c < n; c++ {
		best, bestAbs := -1, eps
		for i := r; i < len(rows); i++ {
			if a := math.Abs(rows[i][c]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			continue
		}
		rows[r], rows[best] = rows[best], rows[r]
		normalize(rows[r], c, n)
		for i, ri := range rows {
			if i != r {
				eliminate(ri, rows[r], c, n)
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

// normalize divides the pivot row pr, from its pivot column c on, by
// its pivot.
func normalize(pr []float64, c, n int) {
	pv := pr[c]
	for j := c; j < n; j++ {
		pr[j] /= pv
	}
}

// eliminate subtracts the normalized pivot row pr, scaled by row ri's
// entry in the pivot column c, from ri, from column c on. A row that
// holds 0 there is left as it is.
func eliminate(ri, pr []float64, c, n int) {
	f := ri[c]
	if f == 0 {
		return
	}
	ri, pr = ri[c:n], pr[c:n]
	for j := range pr {
		ri[j] -= f * pr[j]
	}
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
	pivots := rref(rows, m.cols, pivotEps)
	return basis(rows, m.cols, pivots, 0, m.cols)
}

// LeadingNullspace returns the first maxBasis vectors (every vector
// for maxBasis <= 0) of Nullspace's basis of the 0/1 matrix with cols
// columns whose row i has a one at column colOf[id] for each id in
// rows[i]; an id whose colOf is negative adds none. Every entry is ==
// to Nullspace's truncated to maxBasis, and at maxBasis <= 0 equal to
// it bit for bit; at maxBasis > 0 a zero may differ in sign.
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
// The reduction works per distinct row (see reduceGroups): at the
// default path cap a path matrix has 4,096 rows, but its first 64
// columns hold 223 distinct ones on c432 and 1 on c880.
func LeadingNullspace[R ~[]int](rows []R, colOf []int, cols, maxBasis int) [][]float64 {
	w := cols
	if maxBasis > 0 {
		w = min(cols, leadWidth*maxBasis)
	}
	for {
		piv, pivots, stopped := reduceGroups(leadingGroups(rows, colOf, w), w, pivotEps, maxBasis)
		if stopped || w == cols {
			return basis(piv, w, pivots, maxBasis, cols)
		}
		w = min(cols, 2*w)
	}
}

// group is a set of rows that are equal on the reduced columns: their
// one row slice, and the ascending positions, in the row order of
// rref's reduction of the same rows, of those of them that are not yet
// pivot rows.
type group struct {
	row []float64
	pos []int32
}

// leadingGroups returns the distinct rows of the first w columns of
// LeadingNullspace's matrix in order of first appearance, each with
// the positions of the rows equal to it.
func leadingGroups[R ~[]int](rows []R, colOf []int, w int) []group {
	key, last := make([]byte, (w+7)/8), make([]byte, (w+7)/8)
	index := make(map[string]int32)
	of := make([]int32, len(rows))
	var size []int32
	g := int32(-1)
	for i, row := range rows {
		clear(key)
		for _, id := range row {
			if j := colOf[id]; j >= 0 && j < w {
				key[j/8] |= 1 << (j % 8)
			}
		}
		// Paths in walk order mostly repeat the row before (3,622 of
		// c432's 4,096 on the first 64 columns), which skips the map.
		if g < 0 || !bytes.Equal(key, last) {
			var ok bool
			if g, ok = index[string(key)]; !ok {
				g = int32(len(size))
				index[string(key)] = g
				size = append(size, 0)
			}
			key, last = last, key
		}
		of[i] = g
		size[g]++
	}
	groups := make([]group, len(size))
	data := make([]float64, len(size)*w)
	pos := make([]int32, len(rows))
	for g, at := 0, int32(0); g < len(groups); g++ {
		groups[g].row = data[g*w : (g+1)*w : (g+1)*w]
		groups[g].pos = pos[at : at : at+size[g]]
		at += size[g]
	}
	for i, g := range of {
		gr := &groups[g]
		if len(gr.pos) == 0 {
			for _, id := range rows[i] {
				if j := colOf[id]; j >= 0 && j < w {
					gr.row[j] = 1
				}
			}
		}
		gr.pos = append(gr.pos, int32(i))
	}
	return groups
}

// reduceGroups reduces the w-column rows the groups hold as rref
// reduces them row by row, but updates each group's slice once. Rows
// that are equal stay equal under the same operations, so every row
// holds the values rref computes, by the same operations, and the
// pivots are the same:
//
//   - The pivot scan runs over the groups with rows left. The largest
//     magnitude above eps wins, and a tie goes to the group whose
//     lowest position is lowest: that is the row rref's scan meets
//     first.
//   - rref's swap moves the pivot row to position r, the first that is
//     not a pivot row, and the row at r to the pivot's old position, so
//     only those two groups' positions change. The pivot row leaves
//     its group with a slice of its own.
//   - The elimination updates each earlier pivot row and each group
//     once.
//
// It returns the pivot rows and their pivot columns. With stopAt > 0
// it stops right after the stopAt-th free column, and reports stopped,
// if every free column so far held exact zeros in all rows that were
// not yet pivot rows (see LeadingNullspace for why that makes the stop
// exact).
func reduceGroups(groups []group, w int, eps float64, stopAt int) (piv [][]float64, pivots []int, stopped bool) {
	live := make([]*group, len(groups))
	for i := range groups {
		live[i] = &groups[i]
	}
	free, exact := 0, true
	for c := 0; c < w; c++ {
		// The same scan sees whether the rows below the pivot rows hold
		// exact zeros in column c, and finds the group holding r.
		r := int32(len(piv))
		var best, atR *group
		bi, bestAbs, zero := 0, eps, true
		for i, g := range live {
			a := math.Abs(g.row[c])
			if a > bestAbs || a == bestAbs && best != nil && g.pos[0] < best.pos[0] {
				best, bi, bestAbs = g, i, a
			}
			if a != 0 {
				zero = false
			}
			if g.pos[0] == r {
				atR = g
			}
		}
		if best == nil {
			free++
			exact = exact && zero
			if free == stopAt && exact {
				return piv, pivots, true
			}
			continue
		}
		p := best.pos[0]
		best.pos = best.pos[1:]
		if atR != best {
			// The row at r takes position p > r, in order.
			q := atR.pos
			k := 0
			for ; k+1 < len(q) && q[k+1] < p; k++ {
				q[k] = q[k+1]
			}
			q[k] = p
		}
		pr := best.row
		if len(best.pos) > 0 {
			pr = append([]float64(nil), pr...)
		} else {
			live = slices.Delete(live, bi, bi+1)
		}
		normalize(pr, c, w)
		for _, ri := range piv {
			eliminate(ri, pr, c, w)
		}
		for _, g := range live {
			eliminate(g.row, pr, c, w)
		}
		piv = append(piv, pr)
		pivots = append(pivots, c)
	}
	return piv, pivots, false
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
	return len(rref(m.Clone().rowViews(), m.cols, pivotEps))
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
