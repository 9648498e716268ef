package ckt

// WalkPaths exposes the depth-first walk behind EnumeratePaths to the
// external ckt_test package, which needs the netlist generators in
// internal/gen (an import cycle from package ckt).
func (c *Circuit) WalkPaths(budget int) []Path { return c.walkPaths(budget) }
