// Tmrcompare quantifies the paper's opening argument: classical
// triple-modular redundancy removes nearly all combinational soft
// errors but at ~3x area and energy — unacceptable for commodity
// parts — while SERTOPT's zero-delay-overhead parameter reassignment
// buys a meaningful reduction almost for free.
package main

import (
	"fmt"
	"log"

	"repro/internal/charlib"
	"repro/internal/devmodel"
	"repro/internal/experiments"
	"repro/internal/sertopt"
)

func main() {
	log.SetFlags(0)
	lib := charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	rows, err := experiments.HardeningComparison("c432", lib, sertopt.Options{
		Match:      sertopt.MatchConfig{VDDs: []float64{0.8, 1.0}, Vths: []float64{0.2, 0.3}},
		Vectors:    10000,
		Iterations: 8,
		MaxBasis:   24,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %10s %10s %8s %8s %8s %7s\n",
		"scheme", "U", "decrease", "area", "energy", "delay", "gates")
	for _, r := range rows {
		fmt.Printf("%-10s %10.0f %9.1f%% %7.2fX %7.2fX %7.2fX %7d\n",
			r.Scheme, r.U, 100*r.UDecrease, r.AreaRatio, r.EnergyRatio, r.DelayRatio, r.Gates)
	}
	fmt.Println("\nThe triplicated logic is perfectly masked, but the voter now")
	fmt.Println("sits unprotected in front of the latch: combinational TMR pays")
	fmt.Println("3-4x area/energy and still carries the voter's soft spot, while")
	fmt.Println("SERTOPT cuts U with the same netlist and the same clock — the")
	fmt.Println("paper's case for tolerance-aware parameter assignment.")
}
