package charlib

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/spice"
)

// testLib caches one coarsely characterized library across tests in
// this package (characterization runs the transient simulator).
var (
	testLibOnce sync.Once
	testLib     *Library
)

func lib(t testing.TB) *Library {
	testLibOnce.Do(func() {
		testLib = NewLibrary(devmodel.Tech70nm(), CoarseGrid())
	})
	return testLib
}

func nomCell(t ckt.GateType, fanin int) Cell {
	return Cell{Type: t, Fanin: fanin,
		Params: spice.Params{Size: 1, L: 70e-9, VDD: 1.0, Vth: 0.2}}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		{ckt.Not, 1}:  "INV",
		{ckt.Buf, 1}:  "BUF",
		{ckt.Nand, 2}: "NAND2",
		{ckt.Nor, 3}:  "NOR3",
		{ckt.Xor, 2}:  "XOR2",
	}
	for cl, want := range cases {
		if cl.String() != want {
			t.Errorf("%v.String() = %q, want %q", cl, cl.String(), want)
		}
		back, err := parseClassName(want)
		if err != nil || back != cl {
			t.Errorf("parseClassName(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := parseClassName("NAND"); err == nil {
		t.Error("class without fanin accepted")
	}
	if _, err := parseClassName("123"); err == nil {
		t.Error("all-digits class accepted")
	}
	if _, err := parseClassName("FROB2"); err == nil {
		t.Error("unknown gate class accepted")
	}
}

func TestDelayPlausibleAndTrending(t *testing.T) {
	l := lib(t)
	c := nomCell(ckt.Not, 1)
	load := 0.5e-15
	d, err := l.Delay(c, load)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 200e-12 {
		t.Fatalf("INV delay = %g s, implausible", d)
	}
	big := c
	big.Size = 4
	dBig, err := l.Delay(big, load)
	if err != nil {
		t.Fatal(err)
	}
	if dBig >= d {
		t.Errorf("bigger cell should be faster: size1=%g size4=%g", d, dBig)
	}
	long := c
	long.L = 300e-9
	dLong, err := l.Delay(long, load)
	if err != nil {
		t.Fatal(err)
	}
	if dLong <= d {
		t.Errorf("longer channel should be slower: L70=%g L300=%g", d, dLong)
	}
}

func TestGlitchGenTrends(t *testing.T) {
	// Fig. 1: factors that slow a gate (smaller size, longer L, lower
	// VDD, higher Vth) increase the generated glitch width.
	l := lib(t)
	load := 0.5e-15
	base := nomCell(ckt.Not, 1)
	wBase, err := l.GlitchGen(base, load)
	if err != nil {
		t.Fatal(err)
	}
	if wBase <= 0 {
		t.Fatal("no generated glitch at nominal cell")
	}
	check := func(name string, mod func(*Cell), wider bool) {
		c := base
		mod(&c)
		w, err := l.GlitchGen(c, load)
		if err != nil {
			t.Fatal(err)
		}
		if wider && w <= wBase {
			t.Errorf("%s: want wider glitch, got %g vs base %g", name, w, wBase)
		}
		if !wider && w >= wBase {
			t.Errorf("%s: want narrower glitch, got %g vs base %g", name, w, wBase)
		}
	}
	check("size up", func(c *Cell) { c.Size = 4 }, false)
	check("longer L", func(c *Cell) { c.L = 300e-9 }, true)
	check("lower VDD", func(c *Cell) { c.VDD = 0.8 }, true)
	check("higher Vth", func(c *Cell) { c.Vth = 0.3 }, true)
}

// props returns the library's Props of c.
func props(t *testing.T, l *Library, c Cell) Props {
	t.Helper()
	p, err := l.Props(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInputCapGrowsWithSize(t *testing.T) {
	l := lib(t)
	c1 := nomCell(ckt.Nand, 2)
	c4 := c1
	c4.Size = 4
	if a, b := props(t, l, c1).InputCap, props(t, l, c4).InputCap; b <= a {
		t.Errorf("input cap should grow with size: %g vs %g", a, b)
	}
}

func TestEnergyModels(t *testing.T) {
	l := lib(t)
	// The CV² energy of one output swing into a 1 fF load, as the Eq. 5
	// energy term weighs it.
	dyn := func(c Cell) float64 { return (props(t, l, c).SelfCap + 1e-15) * c.VDD * c.VDD }
	c := nomCell(ckt.Nand, 2)
	e := dyn(c)
	if e <= 0 || e > 1e-12 {
		t.Fatalf("dynamic energy = %g J, implausible", e)
	}
	hiV := c
	hiV.VDD = 1.2
	if dyn(hiV) <= e {
		t.Error("higher VDD must increase dynamic energy")
	}
	p := props(t, l, c).StaticPower
	if p <= 0 {
		t.Fatal("static power must be positive")
	}
	loVth := c
	loVth.Vth = 0.1
	if props(t, l, loVth).StaticPower <= p {
		t.Error("lower Vth must increase static power")
	}
}

func TestAreaModel(t *testing.T) {
	l := lib(t)
	inv := nomCell(ckt.Not, 1)
	nand3 := nomCell(ckt.Nand, 3)
	if props(t, l, nand3).Area <= props(t, l, inv).Area {
		t.Error("NAND3 must be larger than INV")
	}
	big := inv
	big.Size = 8
	if props(t, l, big).Area != 8*props(t, l, inv).Area {
		t.Error("area must scale linearly with size")
	}
	// Z_i has no length term: a longer channel grows the area, not the
	// flux weight.
	long := inv
	long.L = 300e-9
	if pl, pi := props(t, l, long), props(t, l, inv); pl.Area <= pi.Area || pl.FluxWeight != pi.FluxWeight {
		t.Errorf("L=300nm: area %g, flux %g; L=70nm: area %g, flux %g", pl.Area, pl.FluxWeight, pi.Area, pi.FluxWeight)
	}
}

func TestMenu(t *testing.T) {
	l := lib(t)
	cells := l.Menu(Class{Type: ckt.Nand, Fanin: 2}, []float64{0.8, 1.0}, []float64{0.2, 0.3}, 0)
	want := len(l.Grid.Sizes) * len(l.Grid.Lengths) * 2 * 2
	if len(cells) != want {
		t.Fatalf("menu has %d cells, want %d", len(cells), want)
	}
	capped := l.Menu(Class{Type: ckt.Nand, Fanin: 2}, []float64{1.0}, []float64{0.2}, 1)
	for _, c := range capped {
		if c.Size > 1 {
			t.Fatal("maxSize not respected")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := lib(t)
	// Force characterization of INV.
	if _, err := l.Delay(nomCell(ckt.Not, 1), 1e-15); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l2, err := Load(&buf, devmodel.Tech70nm())
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := l.Delay(nomCell(ckt.Not, 1), 1e-15)
	d2, _ := l2.Delay(nomCell(ckt.Not, 1), 1e-15)
	if d1 != d2 {
		t.Fatalf("loaded library disagrees: %g vs %g", d1, d2)
	}
}

// TestLoadRejectsEmptyAxis checks that Load refuses a saved library
// whose grid lost any axis but the optional charge axis: no cell can
// be sized or interpolated on it, so accepting it would only move the
// failure to a later analysis (a panic in the baseline sizing).
func TestLoadRejectsEmptyAxis(t *testing.T) {
	var saved bytes.Buffer
	if err := NewLibrary(devmodel.Tech70nm(), CoarseGrid()).Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, axis := range []string{"Sizes", "Lengths", "VDDs", "Vths", "Loads"} {
		var lj map[string]any
		if err := json.Unmarshal(saved.Bytes(), &lj); err != nil {
			t.Fatal(err)
		}
		lj["grid"].(map[string]any)[axis] = []float64{}
		b, err := json.Marshal(lj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(b), devmodel.Tech70nm()); err == nil || !strings.Contains(err.Error(), axis) {
			t.Errorf("empty %s: Load error %v, want one naming the axis", axis, err)
		}
	}
	if _, err := Load(bytes.NewReader(saved.Bytes()), devmodel.Tech70nm()); err != nil {
		t.Fatalf("grid without charges refused: %v", err)
	}
}

func TestCircuitClasses(t *testing.T) {
	c := ckt.New("t")
	a := c.MustAddGate("a", ckt.Input)
	b := c.MustAddGate("b", ckt.Input)
	g1 := c.MustAddGate("g1", ckt.Nand)
	c.MustConnect(a, g1)
	c.MustConnect(b, g1)
	g2 := c.MustAddGate("g2", ckt.Nand)
	c.MustConnect(a, g2)
	c.MustConnect(g1, g2)
	g3 := c.MustAddGate("g3", ckt.Not)
	c.MustConnect(g2, g3)
	c.MarkPO(g3)
	classes := CircuitClasses(c)
	if len(classes) != 2 {
		t.Fatalf("classes = %v, want NAND2+INV", classes)
	}
}
