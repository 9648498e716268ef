package strike

import (
	"testing"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logicsim"
)

// TestStaticsMemoWeight: the serving tier charges memoized values
// against its compiled-cache budget, so the electrical statics must
// report every array they retain. On c7552 at 10,000 vectors the
// weight must equal those arrays' byte size in 128-byte units, grow
// the handle's weight by as much, and stay below the weight of the
// dense nGates×nPOs denominator table the pair lists replaced.
func TestStaticsMemoWeight(t *testing.T) {
	c, err := gen.ISCAS85("c7552")
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.MustCompile(c)
	sens, err := logicsim.Sensitization(cc, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := cc.Weight()
	st := staticsFor(cc, sens)
	i32 := int64(unsafe.Sizeof(int32(0)))
	bytes := int64(len(st.pairs))*int64(unsafe.Sizeof(st.pairs[0])) +
		int64(len(st.succs))*int64(unsafe.Sizeof(st.succs[0])) +
		i32*int64(len(st.colOff)+len(st.succOff)+len(st.gateOff)+len(st.gatePairs)+len(st.attGates)+len(st.attRow))
	if got := st.MemoWeight(); got != bytes/128 {
		t.Fatalf("MemoWeight = %d, retained arrays hold %d bytes (%d units)", got, bytes, bytes/128)
	}
	if grew := cc.Weight() - before; grew != st.MemoWeight() {
		t.Fatalf("handle weight grew by %d, statics weigh %d", grew, st.MemoWeight())
	}
	nGates, nPOs := len(c.Gates), len(c.Outputs())
	dense := int64(cc.FanoutOffsets()[nGates]+nGates*nPOs) * 8 / 128
	if st.MemoWeight() >= dense {
		t.Fatalf("MemoWeight = %d, not below the dense statics' %d", st.MemoWeight(), dense)
	}
	t.Logf("c7552: %d pairs, %d successor reads, %d gates read as successors; weight %d against %d dense",
		len(st.pairs), len(st.succs), len(st.attGates), st.MemoWeight(), dense)
}
