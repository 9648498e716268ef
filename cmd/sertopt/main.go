// Command sertopt optimizes a circuit for soft-error tolerance under
// its baseline timing constraint (the paper's SERTOPT flow) and prints
// a Table-1-style result row.
//
// Usage:
//
//	sertopt -circuit c432 -vdds 0.8,1.0 -vths 0.2,0.3 [-iters 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro"
)

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sertopt: ")
	var (
		circuit = flag.String("circuit", "", "ISCAS-85 benchmark name")
		benchF  = flag.String("bench", "", "path to a .bench netlist (overrides -circuit)")
		vddsF   = flag.String("vdds", "0.8,1.0", "comma-separated supply-voltage menu")
		vthsF   = flag.String("vths", "0.2,0.3", "comma-separated threshold-voltage menu")
		iters   = flag.Int("iters", 8, "optimizer iterations")
		basis   = flag.Int("basis", 16, "nullspace basis directions")
		vectors = flag.Int("vectors", 10000, "random vectors for sensitization")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		method  = flag.String("method", "sqp", `optimizer: "sqp" or "anneal"`)
		top     = flag.Int("top", 5, "susceptibility entries to show in the before/after soft-spot table (0 disables)")
		coarse  = flag.Bool("coarse", false, "use the coarse characterization grid (faster)")
	)
	flag.Parse()

	var c *ser.Circuit
	var err error
	switch {
	case *benchF != "":
		c, err = ser.LoadBenchFile(*benchF)
	case *circuit != "":
		c, err = ser.Benchmark(*circuit)
	default:
		log.Fatalf("need -circuit or -bench (benchmarks: %v)", ser.BenchmarkNames())
	}
	if err != nil {
		log.Fatal(err)
	}
	vdds, err := parseFloats(*vddsF)
	if err != nil {
		log.Fatal(err)
	}
	vths, err := parseFloats(*vthsF)
	if err != nil {
		log.Fatal(err)
	}

	level := ser.DefaultCharacterization
	if *coarse {
		level = ser.CoarseCharacterization
	}
	sys := ser.NewSystem(level)

	fmt.Println(ser.Summary(c))
	fmt.Printf("optimizing with VDDs=%v Vths=%v method=%s iters=%d basis=%d\n",
		vdds, vths, *method, *iters, *basis)
	res, err := sys.Optimize(c, ser.OptimizeOptions{
		VDDs:       vdds,
		Vths:       vths,
		Iterations: *iters,
		MaxBasis:   *basis,
		Vectors:    *vectors,
		Seed:       *seed,
		Method:     *method,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %-14s %-14s %8s %8s %8s %14s\n",
		"circuit", "VDDs", "Vths", "area", "energy", "delay", "U decrease")
	fmt.Printf("%-10s %-14s %-14s %7.2fX %7.2fX %7.2fX %13.1f%%\n",
		c.Name, *vddsF, *vthsF,
		res.AreaRatio, res.EnergyRatio, res.DelayRatio, 100*res.UDecrease)
	fmt.Printf("\nbaseline U = %.2f, optimized U = %.2f (%d cost evaluations)\n",
		res.BaselineU, res.OptimizedU, res.Raw().Evaluations)

	if *top > 0 {
		// Where the soft spots were and where the optimizer left them:
		// the ranked per-gate susceptibility before and after.
		base, opt := res.Susceptibility()
		n := *top
		if n > len(base) {
			n = len(base)
		}
		fmt.Printf("\ntop %d soft spots (baseline -> optimized)\n", n)
		fmt.Printf("%-6s %-12s %9s %9s   %-12s %9s %9s\n",
			"rank", "gate", "share", "cum", "gate", "share", "cum")
		for i := 0; i < n; i++ {
			fmt.Printf("%-6d %-12s %8.2f%% %8.2f%%   %-12s %8.2f%% %8.2f%%\n",
				i+1, base[i].Name, 100*base[i].Share, 100*base[i].CumShare,
				opt[i].Name, 100*opt[i].Share, 100*opt[i].CumShare)
		}
	}
}
