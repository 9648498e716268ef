// Softspots demonstrates the paper's §2 insight: a gate's soft-error
// tolerance cannot be judged locally. Speeding a gate up shrinks the
// glitch it generates but lets incoming glitches through; slowing it
// down attenuates incoming glitches but generates wide ones. Only a
// whole-circuit estimate (ASERTA) can tell whether a change helps.
//
// The example takes c432, picks its softest gate, then compares three
// whole-circuit unreliabilities: baseline, that gate upsized ("fast"
// hardening), and that gate downsized ("attenuating" hardening).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/charlib"
)

func main() {
	log.SetFlags(0)
	sys := ser.NewSystem(ser.CoarseCharacterization)
	c, err := ser.Benchmark("c432")
	if err != nil {
		log.Fatal(err)
	}

	base, err := sys.Analyze(c, ser.AnalysisOptions{Vectors: 10000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	soft := base.Softest(1)[0]
	fmt.Printf("%s\nbaseline U = %.1f; softest gate: %s (U_i = %.1f)\n\n",
		ser.Summary(c), base.U, soft.Name, soft.U)

	// Spell the baseline assignment out and mutate just the soft gate.
	tryResize := func(label string, size float64) {
		cells := make([]charlib.Cell, len(c.Gates))
		for id := range cells {
			cells[id] = base.Raw().Cells.Cell(id)
		}
		id, _ := c.GateByName(soft.Name)
		cells[id].Size = size
		rep, err := sys.Analyze(c, ser.AnalysisOptions{
			Vectors: 10000, Seed: 1, Cells: cells,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s size=%g: U = %8.1f (%+.1f%% vs baseline)\n",
			label, size, rep.U, 100*(rep.U/base.U-1))
	}
	fmt.Println("hardening only the softest gate:")
	tryResize("upsized (fast, small glitch)", 4)
	tryResize("downsized (attenuating)", 1)

	fmt.Println("\nNeither local move is guaranteed to help — the paper's point:")
	fmt.Println("\"it is not possible to increase the soft-error tolerance of a")
	fmt.Println("circuit by just focussing on a few 'soft' gates\"; SERTOPT")
	fmt.Println("searches the whole delay-assignment space instead (see the")
	fmt.Println("multivdd example).")
}
