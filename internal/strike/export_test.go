package strike

// PairEntries returns the entry of every (gate, PO) pair of the pass in
// an nGates·nPOs W_ij table: the entries Run writes, and the only ones
// it may find nonzero.
func PairEntries(p *Propagator) []int {
	entries := make([]int, len(p.st.pairs))
	for q, pr := range p.st.pairs {
		entries[q] = int(pr.gate)*p.nPOs + int(pr.col)
	}
	return entries
}
