package ser

import "testing"

// TestApproxBracketsExact checks the sampled mode's confidence interval
// against the exact-mode U on two combinational benchmarks: the report
// must flag itself approximate, carry a well-formed interval, and that
// interval must bracket the exact value. The seeds are fixed, so this
// is a deterministic regression, not a statistical assertion.
func TestApproxBracketsExact(t *testing.T) {
	s := sys()
	for _, name := range []string{"c432", "c1355"} {
		c, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := s.Analyze(c, AnalysisOptions{Vectors: 10000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Approx || exact.Batches != 0 || exact.UCIHigh != 0 {
			t.Fatalf("%s: exact report carries approx fields: %+v", name, exact)
		}
		ao := &ApproxOptions{RelErr: 0.05, BatchVectors: 1000}
		rep, err := s.Analyze(c, AnalysisOptions{Seed: 3, Approx: ao})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Approx {
			t.Fatalf("%s: report not flagged approximate", name)
		}
		if rep.Batches < 4 || rep.VectorsUsed != rep.Batches*ao.BatchVectors {
			t.Fatalf("%s: batches=%d vectors=%d", name, rep.Batches, rep.VectorsUsed)
		}
		if rep.Confidence != 0.95 {
			t.Fatalf("%s: confidence = %v, want default 0.95", name, rep.Confidence)
		}
		if !(rep.UCILow < rep.U && rep.U < rep.UCIHigh) {
			t.Fatalf("%s: interval [%v, %v] does not contain its own mean %v",
				name, rep.UCILow, rep.UCIHigh, rep.U)
		}
		if exact.U < rep.UCILow || exact.U > rep.UCIHigh {
			t.Fatalf("%s: exact U %v outside CI [%v, %v] (mean %v, %d batches)",
				name, exact.U, rep.UCILow, rep.UCIHigh, rep.U, rep.Batches)
		}
		if len(rep.Gates) != len(exact.Gates) {
			t.Fatalf("%s: %d gate reports, exact has %d", name, len(rep.Gates), len(exact.Gates))
		}
	}
}
