package charlib

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ckt"
	"repro/internal/devmodel"
	"repro/internal/lut"
	"repro/internal/spice"
)

// QInjDefault is the paper's fixed injected charge: "for simplicity
// ASERTA assumes a fixed amount of injected charge" — 16 fC, the value
// used for Fig. 1.
const QInjDefault = 16e-15

// Library is a characterized cell library: lazily filled lookup tables
// per gate class over the Grid axes, plus analytic capacitance, power
// and area models (Props).
type Library struct {
	Tech *devmodel.Tech
	Grid Grid
	// QInj is the strike charge used for the glitch-generation table.
	QInj float64

	// classes holds one singleflight entry per gate class: the first
	// caller to request an uncharacterized class becomes the leader and
	// characterizes it outside the map lock; concurrent callers for the
	// SAME class block on the entry's ready channel, while callers for
	// OTHER classes proceed independently. This is what lets a serving
	// tier share one library across many simultaneous requests with
	// exactly one characterization per class.
	mu      sync.RWMutex
	classes map[Class]*classEntry
	cfg     charConfig
	// charCount counts characterizeClass executions (not cache hits) —
	// the observable a server exports as its cache-miss metric and the
	// concurrency tests assert on.
	charCount atomic.Int64

	// evalMu guards the interpolation and property memos below.
	// Optimization re-evaluates the same (cell, load) points thousands
	// of times — every SERTOPT cost evaluation re-walks the same
	// discrete cell menu — so the 5-D multilinear interpolations are
	// cached behind a small read-mostly map.
	evalMu  sync.RWMutex
	delayC  map[lutKey]float64
	glitchC map[lutKey]float64
	// propsC memoizes Props. A cell's properties are a pure function of
	// the cell, but computing them builds transistor networks, and
	// every flow's Table reads them for each cell it interns.
	propsC map[cellKey]Props
}

// cellKey is a cell's identity as one block of bits, which a map
// hashes and compares in one pass where a Cell key costs a call per
// float field: its class, then the bits of its four design variables.
// Bit equality and float equality differ only at ±0 and NaN, which no
// cell a Table interns holds (Table.Intern).
type cellKey [6]uint64

// keyOf returns the cell's key.
func keyOf(c Cell) cellKey {
	return cellKey{uint64(c.Type), uint64(c.Fanin),
		math.Float64bits(c.Size), math.Float64bits(c.L), math.Float64bits(c.VDD), math.Float64bits(c.Vth)}
}

// lutKey identifies one memoized table query: the cell's key plus the
// bits of the load capacitance it was evaluated at.
type lutKey struct {
	cell cellKey
	load uint64
}

// classEntry is one singleflight slot: ready is closed once ct/err are
// final.
type classEntry struct {
	ready chan struct{}
	ct    *classTables
	err   error
}

// doneEntry wraps already-final tables (Load, tests) in a closed entry.
func doneEntry(ct *classTables) *classEntry {
	e := &classEntry{ready: make(chan struct{}), ct: ct}
	close(e.ready)
	return e
}

// NewLibrary creates an empty library over the given grid;
// characterization happens on first use of each gate class.
func NewLibrary(tech *devmodel.Tech, g Grid) *Library {
	return &Library{
		Tech:    tech,
		Grid:    g,
		QInj:    QInjDefault,
		classes: make(map[Class]*classEntry),
		cfg:     defaultCharConfig(),
		delayC:  make(map[lutKey]float64),
		glitchC: make(map[lutKey]float64),
		propsC:  make(map[cellKey]Props),
	}
}

// tables returns (characterizing on demand) the class tables.
// Concurrent callers for one uncharacterized class coalesce onto a
// single characterization; callers for distinct classes run in
// parallel.
func (l *Library) tables(cl Class) (*classTables, error) {
	l.mu.RLock()
	e, ok := l.classes[cl]
	l.mu.RUnlock()
	if !ok {
		l.mu.Lock()
		e, ok = l.classes[cl]
		if !ok {
			e = &classEntry{ready: make(chan struct{})}
			l.classes[cl] = e
			l.mu.Unlock()
			// Leader: characterize outside every lock so other classes
			// (and table queries on ready classes) stay unblocked. The
			// entry is finalized in a defer so that even a panic inside
			// characterization releases the waiters instead of wedging
			// the class forever.
			l.charCount.Add(1)
			func() {
				defer func() {
					if r := recover(); r != nil {
						e.err = fmt.Errorf("charlib: characterize %v: panic: %v", cl, r)
					}
					close(e.ready)
				}()
				ct, err := characterizeClass(l.Tech, cl, l.Grid, l.QInj, l.cfg)
				if err != nil {
					e.err = fmt.Errorf("charlib: characterize %v: %v", cl, err)
				} else {
					e.ct = ct
				}
			}()
			return e.ct, e.err
		}
		l.mu.Unlock()
	}
	<-e.ready
	return e.ct, e.err
}

// Characterizations reports how many class characterizations this
// library has executed (coalesced concurrent requests count once).
func (l *Library) Characterizations() int64 { return l.charCount.Load() }

// memoEval serves a table interpolation through the given cache.
func (l *Library) memoEval(cache map[lutKey]float64, pick func(*classTables) *lut.Table, c Cell, load float64) (float64, error) {
	k := lutKey{keyOf(c), math.Float64bits(load)}
	l.evalMu.RLock()
	v, ok := cache[k]
	l.evalMu.RUnlock()
	if ok {
		return v, nil
	}
	ct, err := l.tables(c.Class())
	if err != nil {
		return 0, err
	}
	v, err = pick(ct).Eval(c.Size, c.L, c.VDD, c.Vth, load)
	if err != nil {
		return 0, err
	}
	l.evalMu.Lock()
	cache[k] = v
	l.evalMu.Unlock()
	return v, nil
}

// PrecharacterizeContext characterizes the given classes up front
// (e.g. all classes appearing in a circuit) so later queries never
// block, checking for cancellation between classes. A
// characterization already in flight is not interrupted (another
// request owns it); cancellation takes effect at the next class
// boundary.
func (l *Library) PrecharacterizeContext(ctx context.Context, classes []Class) error {
	for _, cl := range classes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := l.tables(cl); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// CircuitClasses lists the distinct gate classes used by a circuit.
// Frame sources — primary inputs and DFF outputs — carry no
// characterized cell: flops are modeled as latch boundaries (a fixed
// D-pin load and a latching window), not as combinational cells, so a
// sequential circuit characterizes exactly the classes of its
// combinational frame.
func CircuitClasses(c *ckt.Circuit) []Class {
	seen := make(map[Class]bool)
	var out []Class
	for _, g := range c.Gates {
		if g.Type.IsSource() {
			continue
		}
		cl := ClassOf(g)
		if !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	return out
}

// Delay interpolates the cell's propagation delay under the given load.
func (l *Library) Delay(c Cell, load float64) (float64, error) {
	return l.memoEval(l.delayC, func(ct *classTables) *lut.Table { return ct.Delay }, c, load)
}

// GlitchGen interpolates the glitch width generated at the cell output
// by the library's strike charge under the given load.
func (l *Library) GlitchGen(c Cell, load float64) (float64, error) {
	return l.memoEval(l.glitchC, func(ct *classTables) *lut.Table { return ct.Glitch }, c, load)
}

// GlitchGenAt interpolates the glitch width generated by an arbitrary
// injected charge q (C). It requires the grid's charge axis
// (Grid.Charges); without it only the fixed-charge table exists and an
// error is returned — the paper's stated future-work extension, so the
// capability is explicit rather than silently approximated.
func (l *Library) GlitchGenAt(c Cell, load, q float64) (float64, error) {
	ct, err := l.tables(c.Class())
	if err != nil {
		return 0, err
	}
	if ct.GlitchQ == nil {
		return 0, fmt.Errorf("charlib: library has no charge axis (set Grid.Charges); class %v", c.Class())
	}
	return ct.GlitchQ.Eval(c.Size, c.L, c.VDD, c.Vth, load, q)
}

// HasChargeAxis reports whether GlitchGenAt is available.
func (l *Library) HasChargeAxis() bool { return len(l.Grid.Charges) > 0 }

// Props returns the cell's load-independent properties, computed on
// first request and then served from the library's memo.
func (l *Library) Props(c Cell) (Props, error) {
	k := keyOf(c)
	l.evalMu.RLock()
	p, ok := l.propsC[k]
	l.evalMu.RUnlock()
	if ok {
		return p, nil
	}
	var err error
	if p.InputCap, err = spice.CellInputCap(l.Tech, c.Type, c.Fanin, c.Params); err != nil {
		return Props{}, err
	}
	if p.SelfCap, err = spice.CellSelfCap(l.Tech, c.Type, c.Fanin, c.Params); err != nil {
		return Props{}, err
	}
	leak, err := spice.CellLeakage(l.Tech, c.Type, c.Fanin, c.Params)
	if err != nil {
		return Props{}, err
	}
	p.StaticPower = leak * c.VDD
	p.Area = c.Area(l.Tech)
	p.FluxWeight = c.FluxWeight()
	l.evalMu.Lock()
	l.propsC[k] = p
	l.evalMu.Unlock()
	return p, nil
}

// Menu enumerates the discrete cells available for a gate class during
// SERTOPT matching: the cross product of the grid's sizes and lengths
// with the designer-chosen VDD and Vth menus (paper §5: "the values
// and numbers of VDDs and Vths to be used is a design variable").
func (l *Library) Menu(cl Class, vdds, vths []float64, maxSize float64) []Cell {
	var cells []Cell
	for _, sz := range l.Grid.Sizes {
		if maxSize > 0 && sz > maxSize {
			continue
		}
		for _, ln := range l.Grid.Lengths {
			for _, vdd := range vdds {
				for _, vth := range vths {
					cells = append(cells, Cell{
						Type:   cl.Type,
						Fanin:  cl.Fanin,
						Params: spice.Params{Size: sz, L: ln, VDD: vdd, Vth: vth},
					})
				}
			}
		}
	}
	return cells
}

// libraryJSON is the serialized form of a characterized library.
type libraryJSON struct {
	Grid    Grid                    `json:"grid"`
	QInj    float64                 `json:"q_inj"`
	Classes map[string]*classTables `json:"classes"`
}

// Save writes the characterized tables as JSON (the technology is not
// serialized; Load re-attaches one). Classes whose characterization is
// still in flight are waited for; failed classes are skipped.
func (l *Library) Save(w io.Writer) error {
	l.mu.RLock()
	entries := make(map[Class]*classEntry, len(l.classes))
	for cl, e := range l.classes {
		entries[cl] = e
	}
	l.mu.RUnlock()
	lj := libraryJSON{Grid: l.Grid, QInj: l.QInj, Classes: make(map[string]*classTables)}
	for cl, e := range entries {
		<-e.ready
		if e.err == nil && e.ct != nil {
			lj.Classes[cl.String()] = e.ct
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(lj)
}

// Load reads a library saved by Save, attaching technology tech. It
// refuses a grid with an empty axis but the optional charge axis: no
// cell could be sized or characterized on it.
func Load(r io.Reader, tech *devmodel.Tech) (*Library, error) {
	var lj libraryJSON
	if err := json.NewDecoder(r).Decode(&lj); err != nil {
		return nil, fmt.Errorf("charlib: load: %v", err)
	}
	g := lj.Grid
	for i, ax := range [][]float64{g.Sizes, g.Lengths, g.VDDs, g.Vths, g.Loads} {
		if len(ax) == 0 {
			return nil, fmt.Errorf("charlib: load: grid axis %s is empty", [...]string{"Sizes", "Lengths", "VDDs", "Vths", "Loads"}[i])
		}
	}
	l := NewLibrary(tech, g)
	l.QInj = lj.QInj
	for name, ct := range lj.Classes {
		cl, err := parseClassName(name)
		if err != nil {
			return nil, err
		}
		l.classes[cl] = doneEntry(ct)
	}
	return l, nil
}

// parseClassName inverts Class.String ("NAND2" -> {Nand, 2}).
func parseClassName(s string) (Class, error) {
	if s == "INV" {
		return Class{Type: ckt.Not, Fanin: 1}, nil
	}
	if s == "BUF" {
		return Class{Type: ckt.Buf, Fanin: 1}, nil
	}
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) || i == 0 {
		return Class{}, fmt.Errorf("charlib: bad class name %q", s)
	}
	var fanin int
	if _, err := fmt.Sscanf(s[i:], "%d", &fanin); err != nil {
		return Class{}, fmt.Errorf("charlib: bad class name %q: %v", s, err)
	}
	gt, err := ckt.ParseGateType(s[:i])
	if err != nil {
		return Class{}, fmt.Errorf("charlib: bad class name %q: %v", s, err)
	}
	return Class{Type: gt, Fanin: fanin}, nil
}
