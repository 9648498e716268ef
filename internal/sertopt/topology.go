// Package sertopt implements SERTOPT, the paper's soft-error tolerance
// optimizer (§4). It searches over gate delay assignments constrained
// to the nullspace of the path topology matrix T (so path delays — and
// hence the timing constraint — are preserved in the continuous
// model), matches each delay assignment to discrete library cells
// (sizes, channel lengths, VDDs, Vths) in one reverse-topological
// pass, and minimizes the Eq. 5 cost
//
//	C = W1·U/U0 + W2·T/T0 + W3·E/E0 + W4·A/A0
//
// with a projected-gradient SQP-lite search (a simulated-annealing
// alternative is provided, as the paper notes any optimizer works).
package sertopt

import (
	"fmt"

	"repro/internal/ckt"
	"repro/internal/matrix"
)

// DefaultMaxPaths caps topology-matrix path enumeration. Path counts
// grow exponentially; the longest paths are kept because they carry
// the timing wall (BenchmarkAblationPathCap sweeps the cap).
const DefaultMaxPaths = 4096

// Topology describes the binary path topology matrix T of the paper —
// T[j][col] = 1 iff gate (column col) lies on path j — through its
// paths and the gate-ID ↔ column mapping (primary-input pseudo-gates
// have no column). At the default path cap T is thousands of rows by
// one column per gate, so only T materializes it whole, as the tests'
// full-reduction reference; Nullspace reduces just the leading columns
// its vectors read.
type Topology struct {
	// Col maps gate ID -> column (or -1).
	Col []int
	// GateOf maps column -> gate ID.
	GateOf []int
	// Paths are the enumerated paths behind T.
	Paths []ckt.Path
}

// BuildTopology enumerates up to maxPaths PI→PO paths (0 = the
// package default) and indexes their gates by column.
func BuildTopology(c *ckt.Circuit, maxPaths int) (*Topology, error) {
	if maxPaths == 0 {
		maxPaths = DefaultMaxPaths
	}
	paths := c.EnumeratePaths(maxPaths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("sertopt: circuit %q has no PI->PO paths", c.Name)
	}
	tp := &Topology{
		Col:   make([]int, len(c.Gates)),
		Paths: paths,
	}
	for i := range tp.Col {
		tp.Col[i] = -1
	}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		tp.Col[g.ID] = len(tp.GateOf)
		tp.GateOf = append(tp.GateOf, g.ID)
	}
	return tp, nil
}

// T materializes the dense path topology matrix, one row per path and
// one column per gate.
func (tp *Topology) T() *matrix.Dense {
	t := matrix.NewDense(len(tp.Paths), len(tp.GateOf))
	for j, p := range tp.Paths {
		for _, id := range p {
			t.Set(j, tp.Col[id], 1)
		}
	}
	return t
}

// Nullspace returns a basis of delay perturbations Δ with T·Δ = 0,
// truncated to at most maxBasis vectors (0 = no cap). Each vector is
// indexed by gate ID, with zeros at primary inputs, so it adds to a
// per-gate delay vector directly. Its entry at gate GateOf[col] is ==
// to entry col of the matching vector of T().Nullspace(), truncated,
// but only the leading columns of T the first maxBasis vectors read
// are built, from the paths, and reduced (matrix.LeadingNullspace).
func (tp *Topology) Nullspace(maxBasis int) [][]float64 {
	basis := matrix.LeadingNullspace(tp.Paths, tp.Col, len(tp.GateOf), maxBasis)
	for k, v := range basis {
		z := make([]float64, len(tp.Col))
		for col, id := range tp.GateOf {
			z[id] = v[col]
		}
		basis[k] = z
	}
	return basis
}
