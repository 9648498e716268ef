package matrix

import "testing"

// FuzzNullspace holds LeadingNullspace's early stop to the full
// reduction on arbitrary 0/1 matrices: bit k of pattern is entry
// (k / cols, k % cols), and bits past the pattern are 0.
func FuzzNullspace(f *testing.F) {
	f.Add([]byte{0x5b, 0xe1, 0x3c, 0x96, 0x0f, 0x71}, uint8(4), uint8(9), uint8(2))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x33, 0xcc, 0x0f, 0xf0}, uint8(3), uint8(20), uint8(1))
	f.Fuzz(func(t *testing.T, pattern []byte, rows, cols, maxBasis uint8) {
		nr, nc := 1+int(rows%32), 1+int(cols%48)
		ones := make([][]int, nr)
		for i := range ones {
			for j := 0; j < nc; j++ {
				k := i*nc + j
				if k/8 < len(pattern) && pattern[k/8]>>(k%8)&1 == 1 {
					ones[i] = append(ones[i], j)
				}
			}
		}
		requireLeadingMatches(t, ones, nc, int(maxBasis%16))
	})
}
