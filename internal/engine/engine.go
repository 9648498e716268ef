// Package engine provides the compiled-circuit layer of the analysis
// pipeline: one immutable, concurrency-safe artifact per netlist that
// every analysis flow (aserta, seq, sertopt, logicsim, the public ser
// API and the serd service) shares instead of independently re-deriving
// the same structures per call.
//
// # What is compiled (netlist-derived, cacheable)
//
// Everything in a CompiledCircuit depends only on the netlist graph —
// never on a cell assignment, a delay vector or a request's options —
// so it is computed once and shared by any number of concurrent
// analyses, and a serving tier may cache handles by content hash:
//
//   - forward and reverse topological orders of the combinational
//     frame (DFF outputs are frame sources, so sequential circuits
//     order cleanly);
//   - levelization and the frame cut-points (the DFF list lives on the
//     ckt.Circuit itself);
//   - the primary-output column map (gate ID -> Outputs() column);
//   - CSR offset arrays for the per-fanout-edge and per-fanin-edge
//     arenas the analysis passes fill;
//   - lazily, through the keyed memo: the combinational frame of a
//     sequential circuit, depth-from-PO, and the (vectors, seed)-keyed
//     sensitization statistics themselves (the 10,000-vector logic
//     simulation — the dominant cost of a warm analysis).
//
// # What is NOT compiled (assignment-derived)
//
// Loads, delays, generated glitch widths, the WS/Wij electrical
// tables, Eq. 3 contributions and every optimizer artifact depend on
// the per-gate cell assignment (size, L, VDD, Vth) or on request
// options, and therefore live in the per-call aserta.Analysis /
// seq.Result / sertopt.Result values, never in the compiled handle.
//
// # Concurrency
//
// A CompiledCircuit is immutable after Compile; the keyed memo is the
// only mutable state and is guarded by a mutex with per-key
// singleflight (concurrent callers for one key block on a single
// computation). Callers must treat every slice returned by an accessor
// as read-only.
package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ckt"
	"repro/internal/trace"
)

// maxMemoEntries bounds the per-handle memo so a long-lived cached
// handle cannot accumulate unbounded derived artifacts: sensitization
// results are keyed by (vectors, seed) and both are request-
// controlled in a serving tier, so a client cycling seeds would
// otherwise retain one full Pij arena per seed. Past the bound the
// oldest completed entry is evicted, so new keys are still memoized
// (no silent recompute cliff) while retained derived memory stays at
// most maxMemoEntries results per handle. The legitimate steady-state
// population is tiny: one or two sensitization keys plus the logic
// levels, the frame and depth-from-PO.
const maxMemoEntries = 16

// CompiledCircuit is the immutable analysis artifact for one netlist.
type CompiledCircuit struct {
	c      *ckt.Circuit
	order  []int
	rorder []int
	poCol  []int32
	// foutOff[i]..foutOff[i+1] index a flat arena of gate i's fanout
	// edges; edgeOff is the same for fanin edges of non-source gates
	// (source fanins — a DFF's D pin — carry no combinational edge).
	foutOff []int
	edgeOff []int

	mu       sync.Mutex
	memo     map[any]*memoEntry
	memoFIFO []*memoEntry
}

type memoEntry struct {
	key   any
	ready chan struct{}
	val   any
	err   error
}

// Compile derives the immutable artifact from a netlist. It fails on
// structurally invalid circuits (combinational cycles, among others) —
// a compiled handle is always analyzable.
func Compile(c *ckt.Circuit) (*CompiledCircuit, error) {
	if c == nil {
		return nil, fmt.Errorf("engine: nil circuit")
	}
	defer trace.StartStage(nil, "engine.compile")()
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(c.Gates)
	cc := &CompiledCircuit{
		c:      c,
		order:  order,
		rorder: make([]int, n),
		poCol:  make([]int32, n),
		memo:   make(map[any]*memoEntry),
	}
	for i, id := range order {
		cc.rorder[n-1-i] = id
	}
	for i := range cc.poCol {
		cc.poCol[i] = -1
	}
	for k, id := range c.Outputs() {
		cc.poCol[id] = int32(k)
	}
	cc.foutOff = make([]int, n+1)
	cc.edgeOff = make([]int, n+1)
	for id, g := range c.Gates {
		cc.foutOff[id+1] = cc.foutOff[id] + len(g.Fanout)
		ne := 0
		if !g.Type.IsSource() {
			ne = len(g.Fanin)
		}
		cc.edgeOff[id+1] = cc.edgeOff[id] + ne
	}
	return cc, nil
}

// MustCompile is Compile that panics on invalid netlists; for
// generators and tests that control their inputs.
func MustCompile(c *ckt.Circuit) *CompiledCircuit {
	cc, err := Compile(c)
	if err != nil {
		panic(err)
	}
	return cc
}

// Circuit returns the underlying netlist. Callers must not mutate it:
// the compiled artifact is derived from its structure.
func (cc *CompiledCircuit) Circuit() *ckt.Circuit { return cc.c }

// TopoOrder returns gate IDs in topological order of the combinational
// frame (read-only; identical to ckt.Circuit.TopoOrder).
func (cc *CompiledCircuit) TopoOrder() []int { return cc.order }

// ReverseTopoOrder returns gate IDs with every gate before its fanins
// (read-only).
func (cc *CompiledCircuit) ReverseTopoOrder() []int { return cc.rorder }

// levelsKey memoizes Levels on the handle.
type levelsKey struct{}

// Levels returns each gate's longest distance from a frame source,
// indexed by gate ID, memoized on the handle (read-only; delegates to
// ckt.Circuit.Levels so the frame-source semantics cannot diverge).
func (cc *CompiledCircuit) Levels() []int {
	v, _ := cc.Memo(levelsKey{}, func() (any, error) {
		return cc.c.Levels(), nil
	})
	return v.([]int)
}

// POColumn returns the Outputs() column of a PO gate ID, or (0, false)
// for gates that drive no primary output.
func (cc *CompiledCircuit) POColumn(id int) (int, bool) {
	k := cc.poCol[id]
	if k < 0 {
		return 0, false
	}
	return int(k), true
}

// FanoutOffsets returns the CSR offset array of the per-fanout-edge
// arena: gate i's fanout edges occupy [off[i], off[i+1]) (read-only).
func (cc *CompiledCircuit) FanoutOffsets() []int { return cc.foutOff }

// FaninEdgeOffsets returns the CSR offset array of the per-fanin-edge
// arena of non-source gates (read-only).
func (cc *CompiledCircuit) FaninEdgeOffsets() []int { return cc.edgeOff }

// MemoWeigher lets memoized values report their retained size in
// cache-weight units (one unit ~ one gate record, ~128 bytes), so a
// cache weighing handles by Weight sees memoized sensitization
// results and electrical statics grow the entry — without it, a client
// cycling (vectors, seed) pairs could retain orders of magnitude more
// memory than the gate-count budget accounts for.
type MemoWeigher interface{ MemoWeight() int64 }

// Weight is the handle's current cache weight: the gate-record count
// plus the reported weight of every completed memoized value that
// implements MemoWeigher. It grows as the memo fills; a cache should
// re-weigh entries on access (engine.Cache does).
func (cc *CompiledCircuit) Weight() int64 {
	w := int64(len(cc.c.Gates))
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, e := range cc.memoFIFO {
		select {
		case <-e.ready:
			if mw, ok := e.val.(MemoWeigher); ok {
				w += mw.MemoWeight()
			}
		default: // still building: weight lands on a later re-weigh
		}
	}
	return w
}

// Memo returns the memoized value for key, computing it at most once
// per retained lifetime: concurrent callers for one key block on a
// single build (per-key singleflight), and a build error is cached
// like a value (builds are deterministic in the netlist). key must be
// a comparable value; use an unexported struct type per derivation so
// packages cannot collide. The memo is bounded: inserting past
// maxMemoEntries evicts the oldest completed entry (in-flight builds
// are never evicted; waiters already holding an evicted entry still
// receive its value).
func (cc *CompiledCircuit) Memo(key any, build func() (any, error)) (any, error) {
	cc.mu.Lock()
	if e, ok := cc.memo[key]; ok {
		cc.mu.Unlock()
		trace.Count("engine.memo.hit")
		<-e.ready
		return e.val, e.err
	}
	trace.Count("engine.memo.miss")
	e := &memoEntry{key: key, ready: make(chan struct{})}
	cc.memo[key] = e
	cc.memoFIFO = append(cc.memoFIFO, e)
	if len(cc.memo) > maxMemoEntries {
		for i, old := range cc.memoFIFO {
			select {
			case <-old.ready:
				delete(cc.memo, old.key)
				cc.memoFIFO = append(cc.memoFIFO[:i], cc.memoFIFO[i+1:]...)
			default:
				continue // still building: skip, try the next-oldest
			}
			break
		}
	}
	cc.mu.Unlock()
	// Publish via defer so a panicking build (the panic surfaces to
	// this caller) can never leave waiters blocked on ready forever:
	// they observe an error naming the key instead, which a
	// deterministic build would keep reproducing anyway. Only a build
	// that did not return pays for formatting it.
	returned := false
	defer func() {
		if !returned {
			e.err = fmt.Errorf("engine: memo build for %v panicked", key)
		}
		close(e.ready)
	}()
	t0 := time.Now()
	e.val, e.err = build()
	returned = true
	trace.Observe("engine.memo_build", time.Since(t0))
	return e.val, e.err
}

type depthKey struct{}

// DepthFromPO returns each gate's shortest distance to any primary
// output (-1 when unreachable), memoized on the handle (read-only).
func (cc *CompiledCircuit) DepthFromPO() []int {
	v, _ := cc.Memo(depthKey{}, func() (any, error) {
		return cc.c.DepthFromPO(), nil
	})
	return v.([]int)
}
