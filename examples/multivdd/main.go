// Multivdd reproduces a Table-1-style optimization run: SERTOPT
// searches gate sizes, channel lengths, supply voltages and threshold
// voltages for a benchmark circuit under its baseline timing
// constraint, then reports the unreliability reduction and the
// area/energy/delay ratios, plus the optimized circuit's VDD/Vth
// usage histogram (multi-VDD design, no level shifters needed thanks
// to the VDD-ordering constraint).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/ckt"
)

func main() {
	log.SetFlags(0)
	sys := ser.NewSystem(ser.CoarseCharacterization)
	c, err := ser.Benchmark("c432")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ser.Summary(c))

	res, err := sys.Optimize(c, ser.OptimizeOptions{
		VDDs:       []float64{0.8, 1.0}, // the paper's c432 menu
		Vths:       []float64{0.2, 0.3},
		Iterations: 6,
		MaxBasis:   12,
		Vectors:    10000,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nU: %.1f -> %.1f  (decrease %.1f%%; paper's c432 row: 40%%)\n",
		res.BaselineU, res.OptimizedU, 100*res.UDecrease)
	fmt.Printf("ratios vs baseline: area %.2fX, energy %.2fX, delay %.2fX\n",
		res.AreaRatio, res.EnergyRatio, res.DelayRatio)

	// Histogram the optimized assignment.
	opt := res.Raw().Optimized
	type key struct{ vdd, vth float64 }
	hist := map[key]int{}
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		cell := opt.Cell(g.ID)
		hist[key{cell.VDD, cell.Vth}]++
	}
	var keys []key
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].vdd != keys[j].vdd {
			return keys[i].vdd < keys[j].vdd
		}
		return keys[i].vth < keys[j].vth
	})
	fmt.Println("\noptimized (VDD, Vth) usage:")
	for _, k := range keys {
		fmt.Printf("  VDD=%.1fV Vth=%.1fV: %4d gates\n", k.vdd, k.vth, hist[k])
	}

	// The no-level-shifter invariant: drivers never have lower VDD
	// than their loads.
	violations := 0
	for _, g := range c.Gates {
		if g.Type == ckt.Input {
			continue
		}
		for _, s := range g.Fanout {
			if opt.Cell(g.ID).VDD < opt.Cell(s).VDD {
				violations++
			}
		}
	}
	fmt.Printf("\nVDD-ordering violations (must be 0): %d\n", violations)
}
