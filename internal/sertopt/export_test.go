package sertopt

// Exported to the package's external tests, which reach the sequential
// frames through internal/seq (an import the package's own tests
// cannot make): the shared coarse test library and the per-edge
// references of reference_test.go.
var (
	CoarseTestLib       = lib
	RefGateLoads        = refGateLoads
	RefEnumerateSources = refEnumerateSources
	RefInitialSizing    = refInitialSizing
	CellsOf             = cellsOf
)
