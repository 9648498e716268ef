package matrix

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y, err := m.MulVec([]float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -1, -1}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestNullspaceSimple(t *testing.T) {
	// x + y = 0 has nullspace span{(1,-1)}.
	m, _ := FromRows([][]float64{{1, 1}})
	ns := m.Nullspace()
	if len(ns) != 1 {
		t.Fatalf("nullspace dim = %d, want 1", len(ns))
	}
	v := ns[0]
	if math.Abs(v[0]+v[1]) > 1e-10 {
		t.Fatalf("basis vector %v not in nullspace", v)
	}
}

func TestNullspaceFullRank(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	if ns := m.Nullspace(); len(ns) != 0 {
		t.Fatalf("identity should have trivial nullspace, got %d vectors", len(ns))
	}
}

func TestRank(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {1, 0, 1}})
	if r := m.Rank(); r != 2 {
		t.Fatalf("rank = %d, want 2", r)
	}
}

// Property: every nullspace basis vector satisfies T·v ≈ 0 and is unit
// norm; the basis size is cols − rank.
func TestNullspaceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rows := 1 + rng.Intn(6)
		cols := rows + 1 + rng.Intn(6)
		m := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				// 0/1 matrix like a topology matrix.
				if rng.Float64() < 0.5 {
					m.Set(i, j, 1)
				}
			}
		}
		ns := m.Nullspace()
		if len(ns) != cols-m.Rank() {
			return false
		}
		for _, v := range ns {
			y, err := m.MulVec(v)
			if err != nil {
				return false
			}
			for _, x := range y {
				if math.Abs(x) > 1e-8 {
					return false
				}
			}
			if math.Abs(Norm2(v)-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := SolveSPD(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=8 -> x=1.75, y=1.5.
	if math.Abs(x[0]-1.75) > 1e-10 || math.Abs(x[1]-1.5) > 1e-10 {
		t.Fatalf("SolveSPD = %v", x)
	}
}

func TestSolveSPDNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := SolveSPD(a, []float64{1, 1}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system.
	a, _ := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := []float64{2, 3, 5}
	x, err := LeastSquares(a, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-5 || math.Abs(x[1]-3) > 1e-5 {
		t.Fatalf("LeastSquares = %v, want [2 3]", x)
	}
}

// Property: the least-squares residual is orthogonal to the column
// space (within damping tolerance).
func TestLeastSquaresResidualOrthogonal(t *testing.T) {
	rng := stats.NewRNG(12345)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 8, 3
		a := NewDense(rows, cols)
		b := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		ax, _ := a.MulVec(x)
		res := make([]float64, rows)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		// Aᵀ·res ≈ 0.
		for j := 0; j < cols; j++ {
			col := make([]float64, rows)
			for i := 0; i < rows; i++ {
				col[i] = a.At(i, j)
			}
			if math.Abs(Dot(col, res)) > 1e-6 {
				t.Fatalf("trial %d: residual not orthogonal (dot=%g)", trial, Dot(col, res))
			}
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if Norm2(a) != 5 {
		t.Errorf("Norm2 = %g", Norm2(a))
	}
	if Dot(a, []float64{1, 1}) != 7 {
		t.Error("Dot wrong")
	}
	dst := []float64{1, 1}
	AddScaled(dst, 2, []float64{10, 20})
	if dst[0] != 21 || dst[1] != 41 {
		t.Errorf("AddScaled = %v", dst)
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid shape should panic")
		}
	}()
	NewDense(0, 3)
}

// LeadingNullspace must return Nullspace's basis truncated to
// maxBasis, entry for entry, and Nullspace must leave its receiver
// untouched.
func TestLeadingNullspaceMatchesNullspace(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(24)
		ones := make([][]int, rows)
		for i := range ones {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.4 {
					ones[i] = append(ones[i], j)
				}
			}
		}
		for _, maxBasis := range []int{-1, 0, 1, 2, 3, 5, 8} {
			requireLeadingMatches(t, ones, identity(cols), cols, maxBasis)
		}
	}

	// Rows 0, 1 and 3 are identical and hold the first pivot: row 0
	// becomes the pivot row, and rows 1 and 3, one group, are
	// eliminated. Rows 2 and 5 repeat the same way in column 1. Rows 4
	// and 6 differ only in the last column, so they must not group.
	ones := [][]int{{0, 1, 3}, {0, 1, 3}, {1, 2}, {0, 1, 3}, {2, 3, 4}, {1, 2}, {2, 3}}
	var pos [][]int32
	for _, g := range leadingGroups(ones, identity(5), 5) {
		pos = append(pos, g.pos)
	}
	if want := [][]int32{{0, 1, 3}, {2, 5}, {4}, {6}}; !reflect.DeepEqual(pos, want) {
		t.Fatalf("leadingGroups positions %v, want %v", pos, want)
	}
	for _, maxBasis := range []int{0, 1, 2} {
		requireLeadingMatches(t, ones, identity(5), 5, maxBasis)
	}
}

// TestLeadingNullspaceTies holds the grouped pivot scan's tie rule to
// rref's: among groups of equal magnitude the pivot comes from the one
// whose lowest position is lowest, the row a scan in row order meets
// first. After a swap has moved a row, that is not always the group
// first seen, and in both matrices breaking the tie by group order
// changes the basis bits.
func TestLeadingNullspaceTies(t *testing.T) {
	for _, tc := range []struct {
		cols int
		ones [][]int
	}{
		{11, [][]int{{2, 4, 6, 9}, {2, 3, 4, 6, 7, 8, 9, 10}, {0, 2, 3, 4, 5, 8, 10}}},
		{6, [][]int{{1, 2, 3}, {1, 4}, {0, 1, 2, 4, 5}, {0, 1, 2, 4, 5}, {0, 1, 2, 4, 5}, {1, 2, 3}, {1, 2, 3}, {1, 4}, {1, 4}, {1, 2, 3}, {0, 1, 2, 4, 5}}},
	} {
		for _, maxBasis := range []int{0, 1, 2, 3} {
			requireLeadingMatches(t, tc.ones, identity(tc.cols), tc.cols, maxBasis)
		}
	}
}

// identity is the column map that sends id j to column j.
func identity(cols int) []int {
	colOf := make([]int, cols)
	for j := range colOf {
		colOf[j] = j
	}
	return colOf
}

// requireLeadingMatches checks LeadingNullspace(rows, colOf, cols,
// maxBasis) against the full row-by-row reduction of the same matrix
// truncated to maxBasis: the same vector count and == entries. The
// early-stopped reduction may put +0 where the full one computed -0 (a
// pivot row found after the stop holds an exact zero there, negated),
// so entries compare with ==, not by bits; at maxBasis <= 0 both are
// the full reduction and must match bit for bit.
func requireLeadingMatches(t *testing.T, rows [][]int, colOf []int, cols, maxBasis int) {
	t.Helper()
	m := NewDense(len(rows), cols)
	for i, row := range rows {
		for _, id := range row {
			if j := colOf[id]; j >= 0 {
				m.Set(i, j, 1)
			}
		}
	}
	orig := m.Clone()
	want := m.Nullspace()
	for i := range m.data {
		if math.Float64bits(m.data[i]) != math.Float64bits(orig.data[i]) {
			t.Fatalf("%dx%d: Nullspace modified its receiver", len(rows), cols)
		}
	}
	if maxBasis > 0 && len(want) > maxBasis {
		want = want[:maxBasis]
	}
	got := LeadingNullspace(rows, colOf, cols, maxBasis)
	if len(got) != len(want) {
		t.Fatalf("%dx%d maxBasis %d: %d vectors, want %d", len(rows), cols, maxBasis, len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != cols {
			t.Fatalf("%dx%d maxBasis %d: vector %d has %d entries, want %d", len(rows), cols, maxBasis, k, len(got[k]), cols)
		}
		for j := range want[k] {
			g, w := got[k][j], want[k][j]
			if g != w || (maxBasis <= 0 && math.Float64bits(g) != math.Float64bits(w)) {
				t.Fatalf("%dx%d maxBasis %d: vector %d differs at %d: %g vs %g", len(rows), cols, maxBasis, k, j, g, w)
			}
		}
	}
}
