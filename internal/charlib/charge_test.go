package charlib

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/spice"
)

func TestChargeAxisCharacterizationAndRoundTrip(t *testing.T) {
	g := Grid{
		Sizes:   []float64{1},
		Lengths: []float64{70e-9},
		VDDs:    []float64{1.0},
		Vths:    []float64{0.2},
		Loads:   []float64{0.5e-15},
		Charges: []float64{4e-15, 16e-15},
	}
	l := NewLibrary(devmodel.Tech70nm(), g)
	if !l.HasChargeAxis() {
		t.Fatal("grid with charges should report a charge axis")
	}
	cell := Cell{Type: ckt.Not, Fanin: 1,
		Params: spice.Params{Size: 1, L: 70e-9, VDD: 1.0, Vth: 0.2}}
	w4, err := l.GlitchGenAt(cell, 0.5e-15, 4e-15)
	if err != nil {
		t.Fatal(err)
	}
	w16, err := l.GlitchGenAt(cell, 0.5e-15, 16e-15)
	if err != nil {
		t.Fatal(err)
	}
	if w16 <= w4 {
		t.Fatalf("glitch width must grow with charge: %g vs %g", w4, w16)
	}
	// The fixed-charge table and the charge-axis table must agree at
	// the library's own QInj.
	wFixed, err := l.GlitchGen(cell, 0.5e-15)
	if err != nil {
		t.Fatal(err)
	}
	if rel := (w16 - wFixed) / wFixed; rel > 0.05 || rel < -0.05 {
		t.Fatalf("charge-axis table at 16fC (%g) disagrees with fixed table (%g)", w16, wFixed)
	}

	// JSON round trip must preserve the charge table.
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l2, err := Load(&buf, devmodel.Tech70nm())
	if err != nil {
		t.Fatal(err)
	}
	w16b, err := l2.GlitchGenAt(cell, 0.5e-15, 16e-15)
	if err != nil {
		t.Fatal(err)
	}
	if w16b != w16 {
		t.Fatalf("charge table lost in round trip: %g vs %g", w16b, w16)
	}
}

func TestPrecharacterize(t *testing.T) {
	l := NewLibrary(devmodel.Tech70nm(), CoarseGrid())
	classes := []Class{{Type: ckt.Not, Fanin: 1}, {Type: ckt.Nor, Fanin: 2}}
	if err := l.PrecharacterizeContext(context.Background(), classes); err != nil {
		t.Fatal(err)
	}
	// Subsequent queries must not error (tables exist).
	cell := Cell{Type: ckt.Nor, Fanin: 2,
		Params: spice.Params{Size: 1, L: 70e-9, VDD: 1.0, Vth: 0.2}}
	if _, err := l.Delay(cell, 1e-15); err != nil {
		t.Fatal(err)
	}
}
