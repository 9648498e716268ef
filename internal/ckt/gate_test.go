package ckt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseGateType(t *testing.T) {
	cases := []struct {
		in   string
		want GateType
		ok   bool
	}{
		{"AND", And, true},
		{"and", And, true},
		{"NAND", Nand, true},
		{"OR", Or, true},
		{"NOR", Nor, true},
		{"XOR", Xor, true},
		{"XNOR", Xnor, true},
		{"NOT", Not, true},
		{"INV", Not, true},
		{"BUF", Buf, true},
		{"BUFF", Buf, true},
		{"INPUT", Input, true},
		{"MAJ", Input, false},
		{"", Input, false},
	}
	for _, c := range cases {
		got, err := ParseGateType(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseGateType(%q): unexpected error %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseGateType(%q): want error", c.in)
			}
			continue
		}
		if got != c.want {
			t.Errorf("ParseGateType(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "AND" || Not.String() != "NOT" || Buf.String() != "BUFF" {
		t.Errorf("unexpected names: %v %v %v", And, Not, Buf)
	}
	if GateType(200).String() == "" {
		t.Error("out-of-range GateType should still stringify")
	}
}

func TestEvalTruthTables(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Buf, []bool{false}, false},
		{Not, []bool{true}, false},
		{Not, []bool{false}, true},
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{false, false}, true},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
		{Xor, []bool{true, false}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, true}, true},
		{Xnor, []bool{true, false}, false},
		{And, []bool{true, true, true, false}, false},
		{Or, []bool{false, false, false, true}, true},
		{Xor, []bool{true, true, true}, true},
	}
	for _, c := range cases {
		if got := c.t.Eval(c.in); got != c.want {
			t.Errorf("%v.Eval(%v) = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

// Property: EvalWord agrees with Eval on every bit lane for every gate
// type and fanin up to 5.
func TestEvalWordMatchesEval(t *testing.T) {
	types := []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	f := func(w0, w1, w2, w3, w4 uint64, nIn uint8, ti uint8) bool {
		gt := types[int(ti)%len(types)]
		n := 2 + int(nIn)%4
		if gt == Buf || gt == Not {
			n = 1
		}
		words := []uint64{w0, w1, w2, w3, w4}[:n]
		got := gt.EvalWord(words)
		for bit := 0; bit < 64; bit++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = words[i]>>uint(bit)&1 == 1
			}
			want := gt.Eval(in)
			if (got>>uint(bit)&1 == 1) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: EvalRows agrees with EvalWord on every word of the row for
// every logic gate type, fanin 1-9 and row length, including one row
// passed on several pins and fanin rows longer than dst; it panics on
// the frame sources exactly as EvalWord does.
func TestEvalRowsMatchesEvalWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, gt := range []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor} {
		maxIn := 9
		if gt == Buf || gt == Not {
			maxIn = 1
		}
		for n := 1; n <= maxIn; n++ {
			for _, k := range []int{1, 2, 7, 16, 65} {
				for _, shared := range []bool{false, true} {
					in := make([][]uint64, n)
					for p := range in {
						in[p] = make([]uint64, k+p%3)
						for w := range in[p] {
							in[p][w] = rng.Uint64()
						}
					}
					if shared {
						in[n/2], in[n-1] = in[0], in[0]
					}
					dst := make([]uint64, k)
					for w := range dst {
						dst[w] = rng.Uint64()
					}
					gt.EvalRows(dst, in)
					words := make([]uint64, n)
					for w, got := range dst {
						for p := range in {
							words[p] = in[p][w]
						}
						if want := gt.EvalWord(words); got != want {
							t.Fatalf("%v fanin=%d k=%d shared=%v: word %d = %#x, EvalWord %#x", gt, n, k, shared, w, got, want)
						}
					}
				}
			}
		}
	}
	for _, gt := range []GateType{Input, DFF} {
		for name, eval := range map[string]func(){
			"EvalWord": func() { gt.EvalWord([]uint64{1}) },
			"EvalRows": func() { gt.EvalRows(make([]uint64, 2), [][]uint64{{1, 2}}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %v did not panic", name, gt)
					}
				}()
				eval()
			}()
		}
	}
}

func TestControllingValue(t *testing.T) {
	if v, ok := And.ControllingValue(); !ok || v != false {
		t.Errorf("And controlling = %v,%v", v, ok)
	}
	if v, ok := Nand.ControllingValue(); !ok || v != false {
		t.Errorf("Nand controlling = %v,%v", v, ok)
	}
	if v, ok := Or.ControllingValue(); !ok || v != true {
		t.Errorf("Or controlling = %v,%v", v, ok)
	}
	if v, ok := Nor.ControllingValue(); !ok || v != true {
		t.Errorf("Nor controlling = %v,%v", v, ok)
	}
	for _, gt := range []GateType{Xor, Xnor, Buf, Not} {
		if _, ok := gt.ControllingValue(); ok {
			t.Errorf("%v should have no controlling value", gt)
		}
		if gt.HasControllingValue() {
			t.Errorf("%v HasControllingValue should be false", gt)
		}
	}
}

func TestInverting(t *testing.T) {
	inv := map[GateType]bool{Not: true, Nand: true, Nor: true, Xnor: true,
		Buf: false, And: false, Or: false, Xor: false}
	for gt, want := range inv {
		if gt.Inverting() != want {
			t.Errorf("%v.Inverting() = %v, want %v", gt, gt.Inverting(), want)
		}
	}
}
