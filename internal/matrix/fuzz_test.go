package matrix

import "testing"

// FuzzNullspace holds LeadingNullspace's early stop to the full
// reduction on arbitrary 0/1 matrices. With pool%8 == 0 every row is
// drawn on its own: bit k of pattern is entry (k / cols, k % cols),
// and bits past the pattern are 0. Otherwise, when the matrix has more
// rows, the first pool%8 rows so drawn form a pool, and row i repeats
// pool row sel % (pool%8), where sel is the pattern byte after the
// pool's bits plus i (0 past the pattern), so identical rows become
// pivots and are eliminated. Each row then names its columns through a
// column map, as a path names its gates: column j is id 2·(cols−1−j),
// so a row lists its columns in descending order, and after each one
// the row lists the odd id next to it, which the map sends to no
// column (−1).
func FuzzNullspace(f *testing.F) {
	f.Add([]byte{0x5b, 0xe1, 0x3c, 0x96, 0x0f, 0x71}, uint8(4), uint8(9), uint8(2), uint8(0))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x33, 0xcc, 0x0f, 0xf0}, uint8(3), uint8(20), uint8(1), uint8(0))
	f.Add([]byte{0x5b, 0xe1, 0x3c, 0x96, 0x0f, 0x71, 0x02, 0x11, 0x20, 0x01}, uint8(12), uint8(9), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, pattern []byte, rows, cols, maxBasis, pool uint8) {
		nr, nc := 1+int(rows%32), 1+int(cols%48)
		bit := func(k int) bool { return k/8 < len(pattern) && pattern[k/8]>>(k%8)&1 == 1 }
		drawn := nr
		if np := int(pool % 8); np > 0 && np < nr {
			drawn = np
		}
		ones := make([][]int, nr)
		for i := 0; i < drawn; i++ {
			for j := 0; j < nc; j++ {
				if bit(i*nc + j) {
					ones[i] = append(ones[i], j)
				}
			}
		}
		if drawn < nr {
			pooled := append([][]int(nil), ones[:drawn]...)
			at := (drawn*nc + 7) / 8
			for i := range ones {
				sel := 0
				if at+i < len(pattern) {
					sel = int(pattern[at+i])
				}
				ones[i] = pooled[sel%drawn]
			}
		}
		colOf := make([]int, 2*nc)
		for id := range colOf {
			colOf[id] = -1
			if id%2 == 0 {
				colOf[id] = nc - 1 - id/2
			}
		}
		ids := make([][]int, nr)
		for i, row := range ones {
			for _, j := range row {
				id := 2 * (nc - 1 - j)
				ids[i] = append(ids[i], id, id+1)
			}
		}
		requireLeadingMatches(t, ids, colOf, nc, int(maxBasis%16))
	})
}
