package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/ckt"
)

// ParseStream reads a .bench netlist into a circuit named name in one
// streaming pass: the scanner's byte view of each line is tokenized in
// place, signal names are interned once into a string table, and the
// topology is accumulated as flat CSR arrays that ckt.Build turns into
// a slab-allocated Circuit. The result is structurally identical to
// Parse — same gate IDs, same fanin/fanout orders, same validation,
// same ContentHash — without the per-line string splits and the
// per-gate object graph, which is what makes million-gate netlists
// parse in bounded memory. The legacy Parse remains as the differential
// reference implementation (see FuzzParseStream).
func ParseStream(r io.Reader, name string) (*ckt.Circuit, error) {
	p := &streamParser{}
	p.idx.init(1024)
	p.faninOff = append(p.faninOff, 0)

	// Lines may reach 1 MiB; the buffer grows to a line's length only
	// when one needs it.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if err := p.parseLine(line, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %v", err)
	}
	return p.finish(name)
}

// ParseStreamString parses a .bench netlist held in a string through
// the streaming path.
func ParseStreamString(s, name string) (*ckt.Circuit, error) {
	return ParseStream(bytes.NewReader([]byte(s)), name)
}

// streamParser accumulates the flat netlist representation while
// scanning. Signal names are interned: idx maps a name to its index in
// names, and nameGate maps that index to the declared gate ID (-1
// until the declaring line is seen — forward references are legal).
type streamParser struct {
	names    []string
	idx      nameTable
	nameGate []int32

	// Per declared gate, in declaration (= ID) order.
	gateName []int32 // name-table index
	gateType []ckt.GateType
	gateLine []int32

	// CSR fanin in name-table indices, resolved to gate IDs in finish.
	faninOff []int32
	fanin    []int32

	// OUTPUT(...) declarations in file order.
	outName []int32
}

// intern returns the stable index of a signal name, copying the bytes
// only on first sight.
func (p *streamParser) intern(tok []byte) int32 {
	i, slot, hash := p.idx.find(tok, p.names)
	if i >= 0 {
		return i
	}
	i = int32(len(p.names))
	p.names = append(p.names, string(tok))
	p.nameGate = append(p.nameGate, -1)
	p.idx.insert(slot, hash, i)
	return i
}

// nameTable is an open-addressed name→index table specialized for the
// interner: each slot caches the key's hash next to the index, so a
// get-or-insert is one probe sequence (a map needs a failed lookup
// plus an insert) and growth re-buckets without rehashing any string.
// On million-gate netlists the generic map is the parse-time hot spot;
// this table is what keeps the streaming path ahead of the legacy
// parser on wall clock, not just allocations.
type nameTable struct {
	slots []nameSlot
	mask  uint32
	used  int
}

// nameSlot holds one interned name: its cached hash and names-table
// index, idx < 0 meaning empty.
type nameSlot struct {
	hash uint32
	idx  int32
}

func (t *nameTable) init(capacity int) {
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	t.slots = make([]nameSlot, size)
	for i := range t.slots {
		t.slots[i].idx = -1
	}
	t.mask = uint32(size - 1)
	t.used = 0
}

// hashName is FNV-1a over the token bytes; signal names are short, so
// the byte loop beats setting up anything fancier.
func hashName(tok []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range tok {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// find probes for tok: on a hit it returns (index, 0, 0); on a miss it
// returns (-1, slot, hash) where slot is the insertion point for this
// key and hash its already-computed hash.
func (t *nameTable) find(tok []byte, names []string) (int32, uint32, uint32) {
	h := hashName(tok)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.idx < 0 {
			return -1, i, h
		}
		if s.hash == h && names[s.idx] == string(tok) {
			return s.idx, 0, 0
		}
	}
}

// insert fills the slot find returned for a miss, growing at 2/3 load.
func (t *nameTable) insert(slot, hash uint32, idx int32) {
	t.slots[slot] = nameSlot{hash: hash, idx: idx}
	t.used++
	if uint32(t.used)*3 > (t.mask+1)*2 {
		t.grow()
	}
}

func (t *nameTable) grow() {
	old := t.slots
	size := 2 * len(old)
	t.slots = make([]nameSlot, size)
	for i := range t.slots {
		t.slots[i].idx = -1
	}
	t.mask = uint32(size - 1)
	for _, s := range old {
		if s.idx < 0 {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].idx >= 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// declare records a gate declaration for an interned name, enforcing
// the same duplicate-name rule (and error text) as ckt.AddGate.
func (p *streamParser) declare(ni int32, t ckt.GateType, lineNo int) error {
	if p.nameGate[ni] != -1 {
		return fmt.Errorf("bench: line %d: ckt: duplicate gate name %q", lineNo, p.names[ni])
	}
	p.nameGate[ni] = int32(len(p.gateType))
	p.gateName = append(p.gateName, ni)
	p.gateType = append(p.gateType, t)
	p.gateLine = append(p.gateLine, int32(lineNo))
	p.faninOff = append(p.faninOff, int32(len(p.fanin)))
	return nil
}

// parseLine handles one comment-stripped, space-trimmed line. The
// branch structure mirrors Parse exactly, including its quirks: the
// INPUT/OUTPUT prefix match is case-insensitive and fires on any line
// starting with those letters, and operand lists split on every comma
// with whitespace trimmed per operand.
func (p *streamParser) parseLine(line []byte, lineNo int) error {
	switch {
	case hasPrefixFoldBytes(line, "INPUT"):
		arg, err := parensBytes(line[len("INPUT"):], lineNo)
		if err != nil {
			return err
		}
		return p.declare(p.intern(arg), ckt.Input, lineNo)
	case hasPrefixFoldBytes(line, "OUTPUT"):
		arg, err := parensBytes(line[len("OUTPUT"):], lineNo)
		if err != nil {
			return err
		}
		p.outName = append(p.outName, p.intern(arg))
		return nil
	}
	eq := bytes.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("bench: line %d: expected assignment, got %q", lineNo, line)
	}
	dst := bytes.TrimSpace(line[:eq])
	rhs := bytes.TrimSpace(line[eq+1:])
	op := bytes.IndexByte(rhs, '(')
	cp := bytes.LastIndexByte(rhs, ')')
	if op < 0 || cp < op {
		return fmt.Errorf("bench: line %d: malformed gate expression %q", lineNo, rhs)
	}
	fn := bytes.TrimSpace(rhs[:op])
	gt, ok := gateTypeOf(fn)
	if !ok {
		return fmt.Errorf("bench: line %d: ckt: unknown gate type %q", lineNo, fn)
	}
	if gt == ckt.Input {
		return fmt.Errorf("bench: line %d: INPUT used as gate function", lineNo)
	}
	// Operands: the legacy parser splits on ',' and trims each piece,
	// with an empty piece (including the whole-list-empty case) an
	// error. Scan the same segments in place.
	inner := rhs[op+1 : cp]
	start := 0
	for i := 0; i <= len(inner); i++ {
		if i < len(inner) && inner[i] != ',' {
			continue
		}
		tok := bytes.TrimSpace(inner[start:i])
		if len(tok) == 0 {
			return fmt.Errorf("bench: line %d: empty operand in %q", lineNo, rhs)
		}
		p.fanin = append(p.fanin, p.intern(tok))
		start = i + 1
	}
	return p.declare(p.intern(dst), gt, lineNo)
}

// finish resolves name references to gate IDs and materializes the
// circuit through the bulk builder, then validates like Parse.
func (p *streamParser) finish(name string) (*ckt.Circuit, error) {
	n := len(p.gateType)
	gateNames := make([]string, n)
	for id, ni := range p.gateName {
		gateNames[id] = p.names[ni]
	}
	faninIDs := make([]int32, len(p.fanin))
	for id := 0; id < n; id++ {
		lo, hi := p.faninOff[id], p.faninOff[id+1]
		for e := lo; e < hi; e++ {
			ni := p.fanin[e]
			src := p.nameGate[ni]
			if src < 0 {
				return nil, fmt.Errorf("bench: line %d: gate %q references undefined signal %q",
					p.gateLine[id], gateNames[id], p.names[ni])
			}
			if int(src) == id && p.gateType[id] != ckt.DFF {
				return nil, fmt.Errorf("bench: line %d: ckt: self-loop on gate %d (%s)",
					p.gateLine[id], src, gateNames[id])
			}
			faninIDs[e] = src
		}
	}
	outputs := make([]int32, len(p.outName))
	for i, ni := range p.outName {
		id := p.nameGate[ni]
		if id < 0 {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references undefined signal", p.names[ni])
		}
		outputs[i] = id
	}
	c, err := ckt.Build(ckt.BuildSpec{
		Name:      name,
		GateNames: gateNames,
		Types:     p.gateType,
		FaninOff:  p.faninOff,
		Fanin:     faninIDs,
		Outputs:   outputs,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// hasPrefixFoldBytes is hasPrefixFold for a byte view. ASCII-only case
// folding is exact here: no non-ASCII rune simple-folds onto the
// letters of "INPUT" or "OUTPUT" (the Unicode extras — Kelvin sign,
// long s — fold onto K and S only), so this matches strings.EqualFold
// byte for byte on these prefixes.
func hasPrefixFoldBytes(s []byte, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// parensBytes is parens for a byte view, with identical error text.
func parensBytes(s []byte, line int) ([]byte, error) {
	s = bytes.TrimSpace(s)
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return nil, fmt.Errorf("bench: line %d: expected (name), got %q", line, s)
	}
	arg := bytes.TrimSpace(s[1 : len(s)-1])
	if len(arg) == 0 {
		return nil, fmt.Errorf("bench: line %d: empty name", line)
	}
	return arg, nil
}

// gateTypeOf is ckt.ParseGateType for a byte view, allocation-free.
// It reports ok=false for unknown functions; the caller owns the error
// text. Non-ASCII never matches (ckt.ParseGateType uppercases ASCII
// only), so byte-wise ASCII folding is exact.
func gateTypeOf(fn []byte) (ckt.GateType, bool) {
	if len(fn) > 5 {
		return 0, false
	}
	var buf [5]byte
	for i, c := range fn {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	switch string(buf[:len(fn)]) {
	case "INPUT":
		return ckt.Input, true
	case "BUF", "BUFF":
		return ckt.Buf, true
	case "NOT", "INV":
		return ckt.Not, true
	case "AND":
		return ckt.And, true
	case "NAND":
		return ckt.Nand, true
	case "OR":
		return ckt.Or, true
	case "NOR":
		return ckt.Nor, true
	case "XOR":
		return ckt.Xor, true
	case "XNOR":
		return ckt.Xnor, true
	case "DFF", "FF":
		return ckt.DFF, true
	}
	return 0, false
}
