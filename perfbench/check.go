package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro"
)

// sumTol is the relative tolerance between a reported U and the sum of
// its per-gate contributions: the program sums in its own order, so
// the two may differ in the last bits, never more.
const sumTol = 1e-9

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkSum verifies that u is finite and equals the sum of parts.
func checkSum(u float64, parts []float64) error {
	if !finite(u) {
		return fmt.Errorf("U = %v is not finite", u)
	}
	var sum, mag float64
	for i, p := range parts {
		if !finite(p) {
			return fmt.Errorf("gate %d contribution %v is not finite", i, p)
		}
		sum += p
		mag += math.Abs(p)
	}
	if math.Abs(sum-u) > sumTol*mag {
		return fmt.Errorf("U = %.17g but its %d gate contributions sum to %.17g", u, len(parts), sum)
	}
	return nil
}

// checkRanking verifies that a susceptibility ranking is sorted most
// susceptible first with a non-decreasing cumulative share, and, for a
// complete ranking of a positive total, that the share ends at 1.
func checkRanking(ranked []ser.SusceptibilityEntry, total float64, complete bool) error {
	for i := 1; i < len(ranked); i++ {
		if ranked[i].U > ranked[i-1].U {
			return fmt.Errorf("ranking not sorted at rank %d (%s %.6g > %s %.6g)",
				i, ranked[i].Name, ranked[i].U, ranked[i-1].Name, ranked[i-1].U)
		}
		if ranked[i].CumShare < ranked[i-1].CumShare {
			return fmt.Errorf("cumulative share decreases at rank %d", i)
		}
	}
	if complete && total > 0 && len(ranked) > 0 {
		if last := ranked[len(ranked)-1].CumShare; math.Abs(last-1) > sumTol {
			return fmt.Errorf("cumulative share ends at %.17g, not 1", last)
		}
	}
	return nil
}

// reportDigest is the canonical text of a ranked result: the total and
// the top entries, bit-exact.
func reportDigest(name string, u float64, ranked []ser.SusceptibilityEntry) string {
	s := fmt.Sprintf("%s u=%x", name, math.Float64bits(u))
	for i := 0; i < len(ranked) && i < 3; i++ {
		s += fmt.Sprintf(" %s=%x", ranked[i].Name, math.Float64bits(ranked[i].U))
	}
	return s
}

// digestOf hashes the answers of a run's first round in op order. The
// first round always runs whole, so the digest depends only on the
// seed, and is pinned for the default seed.
func digestOf(outs []outcome) string {
	h := sha256.New()
	for _, o := range outs {
		if o.round != 0 {
			break
		}
		fmt.Fprintln(h, o.digest)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
