package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckt"
	"repro/internal/gen"
)

// requireCircuitsEqual compares two circuits structurally: IDs, names,
// types, fanin/fanout orders, PO marks, and the inputs/outputs/DFFs
// sequences every downstream consumer iterates.
func requireCircuitsEqual(t *testing.T, want, got *ckt.Circuit, label string) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: name %q vs %q", label, want.Name, got.Name)
	}
	if len(want.Gates) != len(got.Gates) {
		t.Fatalf("%s: gate count %d vs %d", label, len(want.Gates), len(got.Gates))
	}
	for id := range want.Gates {
		a, b := want.Gates[id], got.Gates[id]
		if a.ID != b.ID || a.Name != b.Name || a.Type != b.Type || a.PO != b.PO {
			t.Fatalf("%s: gate %d header differs: %+v vs %+v", label, id, a, b)
		}
		if !equalIntSlices(a.Fanin, b.Fanin) {
			t.Fatalf("%s: gate %d (%s) fanin %v vs %v", label, id, a.Name, a.Fanin, b.Fanin)
		}
		if !equalIntSlices(a.Fanout, b.Fanout) {
			t.Fatalf("%s: gate %d (%s) fanout %v vs %v", label, id, a.Name, a.Fanout, b.Fanout)
		}
	}
	if !equalIntSlices(want.Inputs(), got.Inputs()) {
		t.Fatalf("%s: inputs %v vs %v", label, want.Inputs(), got.Inputs())
	}
	if !equalIntSlices(want.Outputs(), got.Outputs()) {
		t.Fatalf("%s: outputs %v vs %v", label, want.Outputs(), got.Outputs())
	}
	if !equalIntSlices(want.DFFs(), got.DFFs()) {
		t.Fatalf("%s: dffs %v vs %v", label, want.DFFs(), got.DFFs())
	}
	for _, g := range want.Gates {
		wid, wok := want.GateByName(g.Name)
		gid, gok := got.GateByName(g.Name)
		if wok != gok || wid != gid {
			t.Fatalf("%s: GateByName(%q) = (%d,%v) vs (%d,%v)", label, g.Name, wid, wok, gid, gok)
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffParse runs both parsers on one input and requires identical
// outcomes: same accept/reject decision, same error text on reject,
// structurally identical circuits and identical content hashes on
// accept.
func diffParse(t *testing.T, src, label string) {
	t.Helper()
	cl, errL := ParseString(src, "diff")
	cs, errS := ParseStreamString(src, "diff")
	if (errL == nil) != (errS == nil) {
		t.Fatalf("%s: accept/reject diverged: legacy err=%v, stream err=%v\ninput:\n%s", label, errL, errS, src)
	}
	if errL != nil {
		if errL.Error() != errS.Error() {
			t.Fatalf("%s: error text diverged:\nlegacy: %s\nstream: %s\ninput:\n%s", label, errL, errS, src)
		}
		return
	}
	requireCircuitsEqual(t, cl, cs, label)
	hl, err := ContentHash(cl)
	if err != nil {
		t.Fatalf("%s: ContentHash(legacy): %v", label, err)
	}
	hs, err := ContentHash(cs)
	if err != nil {
		t.Fatalf("%s: ContentHash(stream): %v", label, err)
	}
	if hl != hs {
		t.Fatalf("%s: content hash diverged: %s vs %s", label, hl, hs)
	}
}

// TestParseStreamDifferentialCorpus proves the streaming parser is
// bit-identical to the legacy parser on the whole committed fuzz
// corpus — the fixed backstop behind FuzzParseStream.
func TestParseStreamDifferentialCorpus(t *testing.T) {
	for i, s := range fuzzSeeds {
		diffParse(t, s, fmt.Sprintf("seed %d", i))
	}
}

// TestParseStreamDifferentialGenerated runs the differential over the
// generated ISCAS-85/89 profile circuits: real-shaped netlists with
// forward references, flops, and wide fanin cones.
func TestParseStreamDifferentialGenerated(t *testing.T) {
	diff := func(name string, c *ckt.Circuit, err error) {
		if err != nil {
			t.Fatalf("gen %s: %v", name, err)
		}
		text, err := Format(c)
		if err != nil {
			t.Fatalf("format %s: %v", name, err)
		}
		diffParse(t, text, name)
	}
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		diff(name, c, err)
	}
	for _, name := range gen.SeqNames() {
		c, err := gen.ISCAS89(name)
		diff(name, c, err)
	}
}

// TestParseStreamLargeLine covers the scanner buffer boundary: both
// parsers share the 1 MiB line limit, so a wide gate of a few hundred
// KB parses in both and one past the limit fails in both.
func TestParseStreamLargeLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("OUTPUT(y)\n")
	n := 40000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "INPUT(pi%d)\n", i)
	}
	sb.WriteString("y = AND(pi0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, ", pi%d", i)
	}
	sb.WriteString(")\n")
	if sb.Len() < 300<<10 {
		t.Fatalf("wide gate netlist is %d bytes, want a line of a few hundred KB", sb.Len())
	}
	diffParse(t, sb.String(), "wide gate")

	long := "INPUT(a)\nOUTPUT(y)\ny = AND(a" + strings.Repeat(", a", 1<<20/3) + ")\n"
	if _, err := ParseStreamString(long, "long"); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("a line over 1 MiB: err = %v, want a too-long error", err)
	}
	diffParse(t, long, "line over 1 MiB")
}

// errWriter fails every write after the first n bytes.
type errWriter struct {
	n       int
	written int
}

var errWriterFull = errors.New("writer full")

func (w *errWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errWriterFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteErrorPropagation proves Write reports a destination failure
// instead of silently formatting into a dead writer.
func TestWriteErrorPropagation(t *testing.T) {
	c, err := gen.ISCAS85("c2670")
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&errWriter{n: 1 << 10}, c); !errors.Is(err, errWriterFull) {
		t.Fatalf("Write into failing writer: err = %v, want %v", err, errWriterFull)
	}
	// A healthy writer still round-trips.
	text, err := Format(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseStreamString(text, c.Name)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() || c2.NumEdges() != c.NumEdges() {
		t.Fatalf("round trip changed structure")
	}
}

// TestBuildSpecValidation covers the bulk builder's structural checks
// directly (the streaming parser pre-validates most of them, so this
// exercises the backstop paths).
func TestBuildSpecValidation(t *testing.T) {
	base := func() ckt.BuildSpec {
		return ckt.BuildSpec{
			Name:      "t",
			GateNames: []string{"a", "b", "y"},
			Types:     []ckt.GateType{ckt.Input, ckt.Input, ckt.And},
			FaninOff:  []int32{0, 0, 0, 2},
			Fanin:     []int32{0, 1},
			Outputs:   []int32{2},
		}
	}
	if c, err := ckt.Build(base()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	} else if err := c.Validate(); err != nil {
		t.Fatalf("built circuit fails Validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ckt.BuildSpec)
	}{
		{"shape mismatch", func(s *ckt.BuildSpec) { s.Types = s.Types[:2] }},
		{"offset overrun", func(s *ckt.BuildSpec) { s.FaninOff[3] = 9 }},
		{"duplicate name", func(s *ckt.BuildSpec) { s.GateNames[1] = "a" }},
		{"fanin out of range", func(s *ckt.BuildSpec) { s.Fanin[0] = 7 }},
		{"self loop", func(s *ckt.BuildSpec) { s.Fanin[0] = 2 }},
		{"output out of range", func(s *ckt.BuildSpec) { s.Outputs[0] = 5 }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if _, err := ckt.Build(s); err == nil {
			t.Errorf("%s: Build accepted a broken spec", tc.name)
		}
	}
	// A DFF self-loop (Q wired to D) stays legal, exactly like Connect.
	s := base()
	s.Types[2] = ckt.DFF
	s.FaninOff = []int32{0, 0, 0, 1}
	s.Fanin = []int32{2}
	if _, err := ckt.Build(s); err != nil {
		t.Errorf("DFF self-loop rejected: %v", err)
	}
}

// TestParseStreamSharesInterning sanity-checks the builder's arena
// layout: fanin and fanout slices of adjacent gates must be disjoint
// views (an append to one must never bleed into its neighbor).
func TestParseStreamArenaIsolation(t *testing.T) {
	c, err := ParseStreamString("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\nv = OR(a, b)\ny = XOR(u, v)\n", "iso")
	if err != nil {
		t.Fatal(err)
	}
	u, _ := c.GateByName("u")
	before := append([]int(nil), c.Gates[u].Fanout...)
	ua, _ := c.GateByName("a")
	// Appending through a copy of the slice header must not alter the
	// neighbor's view (capacity is clamped to the view).
	_ = append(c.Gates[ua].Fanout[:len(c.Gates[ua].Fanout):len(c.Gates[ua].Fanout)], 99)
	if !reflect.DeepEqual(before, c.Gates[u].Fanout) {
		t.Fatal("fanout arena views are not isolated")
	}
}
