package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro"
	"repro/internal/charlib"
	"repro/internal/trace"
)

// A share is how many ops of one kind a round holds.
type share struct {
	name string
	n    int
}

// A workload is one input mix driven by closed-loop callers.
type workload struct {
	name string
	// loop describes the callers, printed with the results.
	loop string
	// conns is the number of closed-loop callers.
	conns int
	// tail is the percentile reported as tail_ms: the highest with at
	// least minBeyond samples beyond it in a default-length run.
	tail float64
	// circuits lists every built-in the workload touches; set-up
	// characterizes their cell classes.
	circuits []string
	// pinned is the answer digest of the first round at defaultSeed.
	pinned string
	start  func(ctx context.Context, sys *ser.System, seed uint64, traced bool) (*harness, error)
}

// A harness is a started workload.
type harness struct {
	// round returns round r's ops; round 0 is the first timed round.
	round func(r int) []op
	// warmup lists passes of ops run before timing, each run once.
	warmup [][]op
	// counters reads the program's own counters from outside it.
	counters func() (progCounters, error)
	close    func()
}

// progCounters are the program counters a run reads before and after
// its timed phase.
type progCounters struct {
	cacheHits, cacheMisses, evictions int64
	memoHits, memoMisses              int64
	characterizations                 int64
}

func (a progCounters) sub(b progCounters) progCounters {
	return progCounters{
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		evictions: a.evictions - b.evictions,
		memoHits:  a.memoHits - b.memoHits, memoMisses: a.memoMisses - b.memoMisses,
		characterizations: a.characterizations - b.characterizations,
	}
}

// memoCounters reads the engine's memo hit and miss counters.
func memoCounters(pc *progCounters) {
	for _, c := range trace.Counters() {
		switch c.Name {
		case "engine.memo.hit":
			pc.memoHits = c.Value
		case "engine.memo.miss":
			pc.memoMisses = c.Value
		}
	}
}

// rng returns the deterministic stream for one round of one seed.
func rng(seed uint64, round int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(int64(round))))
}

// expand lists a round's op kinds in a seed-shuffled order.
func expand(mix []share, r *rand.Rand) []string {
	var out []string
	for _, s := range mix {
		for i := 0; i < s.n; i++ {
			out = append(out, s.name)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func distinct(mix []share) []string {
	out := make([]string, len(mix))
	for i, s := range mix {
		out[i] = s.name
	}
	return out
}

// Op mixes. Every round holds the same ops, so every run measures the
// same mix; latency classes are sized so that the median and the tail
// percentile each fall inside one class, away from the class
// boundaries where a one-sample shift would move the figure.

// analyzeColdMix puts p50 among the c1908 ops (ranks 8-11 of 20) and
// p90 among the c6288 ops (ranks 17-18), with c7552 above it.
var analyzeColdMix = []share{
	{"c432", 4}, {"c499", 2}, {"c880", 2}, {"c1908", 4}, {"c1355", 2},
	{"c2670", 2}, {"c3540", 1}, {"c6288", 2}, {"c7552", 1},
}

// sequentialMix puts p50 among the s1196 ops (ranks 6-11 of 20) and p90
// among the s1423 ops (ranks 12-19). Ops much shorter than s1196 vary
// by half their length from one to the next, so none sits at the
// median. s5378 is left out: each of its ops allocates 892 MB, and
// whether two of them overlapped on the two callers set the peak RSS,
// 370 or 510 MB.
var sequentialMix = []share{
	{"s298", 3}, {"s386", 3}, {"s1196", 6}, {"s1423", 8},
}

// optimizeMix puts p50 among the c432 ops (ranks 0-7 of 10) and p90
// between the c499 and c880 ops (ranks 8-9), which overlap in latency.
var optimizeMix = []share{{"c432", 8}, {"c499", 1}, {"c880", 1}}

// libraryWorkload builds a library workload whose ops are made by
// mk from the mix's circuits with a per-op analysis seed.
func libraryWorkload(mix []share, mk func(sys *ser.System, name string, text []byte, seed uint64) op) func(ctx context.Context, sys *ser.System, seed uint64, traced bool) (*harness, error) {
	return func(ctx context.Context, sys *ser.System, seed uint64, traced bool) (*harness, error) {
		texts, err := circuitTexts(distinct(mix))
		if err != nil {
			return nil, err
		}
		ops := func(names []string, r *rand.Rand) []op {
			out := make([]op, len(names))
			for i, n := range names {
				out[i] = mk(sys, n, texts[n], r.Uint64())
			}
			return out
		}
		return &harness{
			round: func(r int) []op {
				g := rng(seed, r)
				return ops(expand(mix, g), g)
			},
			warmup: [][]op{ops(distinct(mix), rng(seed, -1))},
			counters: func() (progCounters, error) {
				pc := progCounters{characterizations: sys.Characterizations()}
				memoCounters(&pc)
				return pc, nil
			},
			close: func() {},
		}, nil
	}
}

// serveMix is the serve-warm request mix per round of 50: top-10
// susceptibility by name, full per-gate rows from /v1/analyze, an
// inline netlist, and a three-item batch. p50 falls among the c1355
// rows (ranks 19-28 by expected latency) and p99 among the c7552 rows,
// the slowest four percent.
func serveMix(inline []byte) ([]*serveReq, []share, error) {
	susc := func(c string) job { return job{circuit: c} }
	rows := func(c string) job { return job{circuit: c, rows: true} }
	inl := job{circuit: "c499", inline: inline}
	kinds := []struct {
		n    int
		jobs []job
	}{
		{9, []job{susc("c432")}},
		{5, []job{inl}},
		{5, []job{susc("c880")}},
		{10, []job{rows("c1355")}},
		{5, []job{susc("c3540")}},
		{5, []job{susc("c1908"), inl, rows("c880")}},
		{4, []job{rows("c6288")}},
		{5, []job{susc("c2670")}},
		{2, []job{rows("c7552")}},
	}
	var reqs []*serveReq
	var mix []share
	for i, k := range kinds {
		r, err := newServeReq(k.jobs...)
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, r)
		mix = append(mix, share{fmt.Sprint(i), k.n})
	}
	return reqs, mix, nil
}

// serveCircuits lists the built-ins serveMix touches.
var serveCircuits = []string{"c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c6288", "c7552"}

// serveConns is serve-warm's closed-loop connection count: serd's sync
// callers (CLI scripts, serclient) each wait for their reply, and two
// keep both cores of a 2-vCPU host busy.
const serveConns = 2

func startServeWarm(ctx context.Context, sys *ser.System, seed uint64, traced bool) (*harness, error) {
	texts, err := circuitTexts([]string{"c499"})
	if err != nil {
		return nil, err
	}
	reqs, mix, err := serveMix(texts["c499"])
	if err != nil {
		return nil, err
	}
	// The library answer for every distinct job, on fresh handles.
	refs := make(map[string]libRef)
	for _, r := range reqs {
		for _, j := range r.jobs {
			if _, ok := refs[j.key()]; !ok {
				if refs[j.key()], err = j.reference(ctx, sys); err != nil {
					return nil, fmt.Errorf("library answer for %s: %w", j, err)
				}
			}
			r.refs = append(r.refs, refs[j.key()])
		}
	}
	st, err := startServe(sys, serveConns, traced)
	if err != nil {
		return nil, err
	}
	m, err := st.metrics()
	if err != nil {
		st.close()
		return nil, err
	}
	byKind := make(map[string]op)
	first := make([]op, len(reqs))
	for i, r := range reqs {
		byKind[fmt.Sprint(i)] = serveOp(st, r, m.QueueWorkers)
		first[i] = byKind[fmt.Sprint(i)]
	}
	round := func(r int) []op {
		kinds := expand(mix, rng(seed, r))
		out := make([]op, len(kinds))
		for i, k := range kinds {
			out[i] = byKind[k]
		}
		return out
	}
	return &harness{
		round: round,
		// Fill the compiled cache and the sensitization memo with
		// every request once, then run two whole rounds at full
		// concurrency so the first timed round starts warm.
		warmup: [][]op{first, append(round(-1), round(-2)...)},
		counters: func() (progCounters, error) {
			m, err := st.metrics()
			if err != nil {
				return progCounters{}, err
			}
			pc := progCounters{
				cacheHits: m.CompiledCache.Hits, cacheMisses: m.CompiledCache.Misses,
				evictions: m.CompiledCache.Evictions, characterizations: m.Characterizations,
			}
			memoCounters(&pc)
			return pc, nil
		},
		close: st.close,
	}, nil
}

// characterize builds a fresh coarse-grid system and characterizes
// every cell class the circuits use.
func characterize(ctx context.Context, circuits []string) (*ser.System, error) {
	sys := ser.NewSystem(ser.CoarseCharacterization)
	seen := make(map[charlib.Class]bool)
	var classes []charlib.Class
	for _, n := range circuits {
		c, err := ser.Benchmark(n)
		if err != nil {
			return nil, err
		}
		for _, cl := range charlib.CircuitClasses(c) {
			if !seen[cl] {
				seen[cl] = true
				classes = append(classes, cl)
			}
		}
	}
	return sys, sys.Lib.PrecharacterizeContext(ctx, classes)
}

// workloads are the benchmark's workloads, in the order "all" runs them.
// Each pinned digest is that of the first round's answers at defaultSeed.
var workloads = []workload{
	// Every op parses, compiles and analyzes a fresh netlist, so
	// sensitization runs cold each time, on arenas from in-cache c432
	// to out-of-cache c7552.
	{
		name:     "analyze-cold",
		loop:     "closed loop, 1 caller",
		conns:    1,
		tail:     90,
		circuits: distinct(analyzeColdMix),
		pinned:   "0372407de2da4269",
		start:    libraryWorkload(analyzeColdMix, analyzeColdOp),
	},
	// Every request hits the compiled cache and the sensitization memo,
	// so time splits between the warm engine path and serving: JSON,
	// queue, router hop, inline parse.
	{
		name:     "serve-warm",
		loop:     "closed loop, 2 connections through one router hop to one in-process serd shard",
		conns:    serveConns,
		tail:     99,
		circuits: serveCircuits,
		pinned:   "a681d8d43e95f73c",
		start:    startServeWarm,
	},
	// The only workload that runs the multi-cycle fault chase
	// (strike.logical), on ISCAS-89 s298-s1423, 4 cycles. Two callers,
	// for the reason given at optimize.
	{
		name:     "sequential",
		loop:     "closed loop, 2 callers",
		conns:    2,
		tail:     90,
		circuits: distinct(sequentialMix),
		pinned:   "b83765eda41efdcf",
		start:    libraryWorkload(sequentialMix, sequentialOp),
	},
	// The only workload that runs SERTOPT's incremental RecomputeU loop
	// (sertopt, strike.Delta), at Table-1 bench settings. Two callers:
	// one caller's small parallel loops idle the second vCPU at every
	// barrier, and on a virtualized host each wake-up waits on the
	// hypervisor, so one-caller figures halved when the host was busy.
	// Two keep both vCPUs busy.
	{
		name:     "optimize",
		loop:     "closed loop, 2 callers",
		conns:    2,
		tail:     90,
		circuits: distinct(optimizeMix),
		pinned:   "cbaf63574f768535",
		start:    libraryWorkload(optimizeMix, optimizeOp),
	},
}
