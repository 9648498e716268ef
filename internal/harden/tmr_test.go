package harden

import (
	"sync"
	"testing"

	"repro/internal/aserta"
	"repro/internal/charlib"
	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
)

var (
	libOnce sync.Once
	testLib *charlib.Library
)

func lib() *charlib.Library {
	libOnce.Do(func() {
		testLib = charlib.NewLibrary(devmodel.Tech70nm(), charlib.CoarseGrid())
	})
	return testLib
}

func TestTMRStructure(t *testing.T) {
	c := gen.C17()
	res, err := TMR(c)
	if err != nil {
		t.Fatal(err)
	}
	tc := res.Circuit
	s := tc.Summary()
	// 3x6 logic gates + 4 voter gates per PO x 2 POs = 26.
	if s.Gates != 26 {
		t.Fatalf("TMR c17 has %d gates, want 26", s.Gates)
	}
	if s.PIs != 5 || s.POs != 2 {
		t.Fatalf("TMR c17 PIs/POs = %d/%d", s.PIs, s.POs)
	}
	if len(res.VoterGates) != 8 {
		t.Fatalf("voter gates = %d, want 8", len(res.VoterGates))
	}
}

// TMR must preserve the logic function.
func TestTMRFunctionalEquivalence(t *testing.T) {
	c := gen.C17()
	res, err := TMR(c)
	if err != nil {
		t.Fatal(err)
	}
	nPI := len(c.Inputs())
	for m := 0; m < 1<<uint(nPI); m++ {
		in := make([]bool, nPI)
		for b := range in {
			in[b] = m>>uint(b)&1 == 1
		}
		v1, err := logicsim.Evaluate(c, in)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := logicsim.Evaluate(res.Circuit, in)
		if err != nil {
			t.Fatal(err)
		}
		for k, po := range c.Outputs() {
			if v1[po] != v2[res.Circuit.Outputs()[k]] {
				t.Fatalf("TMR output %d differs for input %05b", k, m)
			}
		}
	}
}

// The voter must logically mask single strikes inside a copy: every
// in-copy gate's sensitization probability to every PO must be zero —
// its two healthy partners always agree.
func TestTMRMasksSingleCopyStrikes(t *testing.T) {
	c := gen.C17()
	res, err := TMR(c)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := logicsim.Sensitization(engine.MustCompile(res.Circuit), 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Circuit.Gates {
		if g.Type == ckt.Input {
			continue
		}
		if res.CopyOf[g.ID] < 0 {
			continue // voter gate: strikes there do propagate
		}
		for j, p := range sens.Pij[g.ID] {
			if p != 0 {
				t.Fatalf("in-copy gate %s has P_ij=%g to PO %d; voter not masking", g.Name, p, j)
			}
		}
	}
}

// The ASERTA verdict on combinational TMR, which the experiments and
// the tmrcompare example report: the triplicated logic is perfectly
// masked (see TestTMRMasksSingleCopyStrikes), so whatever unreliability
// remains is carried almost entirely by the voter gates sitting
// unprotected in front of the latch — at more than triple the area.
// This is the quantitative form of the paper's §1 argument that
// checker-based schemes pay structural overheads where SERTOPT pays
// none.
func TestTMRUnreliabilityVsOverheads(t *testing.T) {
	c, err := gen.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := TMR(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := aserta.Config{Vectors: 4000, Seed: 1, POLoad: 2e-15}
	cells, err := charlib.NominalAssignment(res.Circuit, lib(), 2)
	if err != nil {
		t.Fatal(err)
	}
	anTMR, err := aserta.AnalyzeCompiled(engine.MustCompile(res.Circuit), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if anTMR.U <= 0 {
		t.Fatal("TMR circuit has zero unreliability; voters unrealistically immune")
	}
	frac := res.VoterShare(anTMR.Ui)
	if frac < 0.9 {
		t.Fatalf("voter gates carry %.0f%% of TMR unreliability, want >= 90%% (copies must be masked)", 100*frac)
	}
	if res.Circuit.NumGates() < 3*c.NumGates() {
		t.Fatal("TMR should at least triple the logic")
	}
	t.Logf("c432 TMR: U=%.0f, %.0f%% carried by the %d voter gates; gates %d -> %d",
		anTMR.U, 100*frac, len(res.VoterGates), c.NumGates(), res.Circuit.NumGates())
}

func TestTMRRejectsInvalid(t *testing.T) {
	bad := ckt.New("bad")
	bad.MustAddGate("a", ckt.Input)
	if _, err := TMR(bad); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}
