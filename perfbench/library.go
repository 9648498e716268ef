package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/trace"
)

// circuitTexts renders each named built-in benchmark as .bench text:
// the library workloads parse it afresh in every op.
func circuitTexts(names []string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, n := range names {
		if _, ok := out[n]; ok {
			continue
		}
		c, err := ser.Benchmark(n)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := ser.WriteBench(&b, c); err != nil {
			return nil, fmt.Errorf("render %s: %w", n, err)
		}
		out[n] = b.Bytes()
	}
	return out, nil
}

// libraryOp builds one library op on a fresh handle: parse the .bench
// text, compile it, then call analyze on the handle. Traced ops record
// the benchmark's own spans around each call and the program's stage
// spans.
func libraryOp(name string, text []byte, apiSpan string, analyze func(ctx context.Context, h *ser.Compiled, log *spanLog) (answer, error)) op {
	return op{input: name, run: func(ctx context.Context, id string, traced bool) (answer, traceData, error) {
		var log *spanLog
		var rec *trace.Recorder
		if traced {
			log, rec = &spanLog{}, &trace.Recorder{}
			ctx = trace.WithRecorder(trace.WithRequestID(ctx, id), rec)
		}
		end := log.begin("bench.parse")
		c, err := ser.ParseBench(bytes.NewReader(text), name)
		end()
		if err != nil {
			return nil, nil, err
		}
		end = log.begin("engine.compile")
		h, err := ser.Compile(c)
		end()
		if err != nil {
			return nil, nil, err
		}
		end = log.begin(apiSpan)
		ans, err := analyze(ctx, h, log)
		end()
		if err != nil || !traced {
			return ans, nil, err
		}
		log.addRecorded(rec)
		if c, ok := ans.(counter); ok {
			log.n = c.counts()
		}
		return ans, log, nil
	}}
}

// histSums snapshots the program's global per-stage time totals.
func histSums() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, h := range trace.Histograms() {
		out[h.Stage] = time.Duration(h.SumSeconds * float64(time.Second))
	}
	return out
}

// optimizerShares returns, from global histogram totals before and
// after a timed phase, the share of sertopt.optimize time each analysis
// stage took inside it. The optimizer calls those stages without the
// op's recorder, so they reach only the global histograms, and every
// one of them runs inside a sertopt.optimize stage. Its sensitization
// build runs outside any stage and stays in sertopt.optimize. Nil when
// the phase ran no optimizer.
func optimizerShares(before, after map[string]time.Duration) map[string]float64 {
	opt := after["sertopt.optimize"] - before["sertopt.optimize"]
	if opt <= 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, st := range []string{"strike.sources", "logicsim.sensitization", "strike.electrical", "strike.reduce"} {
		out[st] = float64(after[st]-before[st]) / float64(opt)
	}
	return out
}

// rankedAnswer is an analysis total, its per-gate contributions and
// their ranking.
type rankedAnswer struct {
	name   string
	u      float64
	gateU  []float64
	ranked []ser.SusceptibilityEntry
}

func (a rankedAnswer) check() error {
	if err := checkSum(a.u, a.gateU); err != nil {
		return err
	}
	if len(a.ranked) != len(a.gateU) {
		return fmt.Errorf("ranking has %d entries for %d gates", len(a.ranked), len(a.gateU))
	}
	return checkRanking(a.ranked, a.u, true)
}

func (a rankedAnswer) digest() string { return reportDigest(a.name, a.u, a.ranked) }

// optAnswer is one SERTOPT run.
type optAnswer struct {
	name string
	res  *ser.OptimizeResult
}

func (a optAnswer) check() error {
	raw := a.res.Raw()
	base, opt := a.res.Susceptibility()
	for _, side := range []rankedAnswer{{"baseline", a.res.BaselineU, nil, base}, {"optimized", a.res.OptimizedU, nil, opt}} {
		for _, e := range side.ranked {
			side.gateU = append(side.gateU, e.U)
		}
		if err := side.check(); err != nil {
			return fmt.Errorf("%s: %w", side.name, err)
		}
	}
	if want := 1 - a.res.OptimizedU/a.res.BaselineU; a.res.UDecrease != want {
		return fmt.Errorf("U decrease %.17g, want 1 - optimized/baseline = %.17g", a.res.UDecrease, want)
	}
	if raw.Evaluations < 1 {
		return fmt.Errorf("optimizer made %d cost evaluations", raw.Evaluations)
	}
	return nil
}

func (a optAnswer) digest() string {
	_, opt := a.res.Susceptibility()
	return reportDigest(a.name, a.res.BaselineU, nil) + " " + reportDigest("opt", a.res.OptimizedU, opt)
}

func (a optAnswer) counts() map[string]float64 {
	return map[string]float64{"sertopt.evaluations": float64(a.res.Raw().Evaluations)}
}

// The library workloads' op constructors. seed is the op's analysis
// seed.

func analyzeColdOp(sys *ser.System, name string, text []byte, seed uint64) op {
	return libraryOp(name, text, "ser.analyze", func(ctx context.Context, h *ser.Compiled, log *spanLog) (answer, error) {
		rep, err := sys.AnalyzeCompiledContext(ctx, h, ser.AnalysisOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		ranked := rankTimed(log, rep.Susceptibility)
		gateU := make([]float64, len(rep.Gates))
		for i, g := range rep.Gates {
			gateU[i] = g.U
		}
		return rankedAnswer{name, rep.U, gateU, ranked}, nil
	})
}

func sequentialOp(sys *ser.System, name string, text []byte, seed uint64) op {
	return libraryOp(name, text, "ser.sequential", func(ctx context.Context, h *ser.Compiled, log *spanLog) (answer, error) {
		rep, err := sys.AnalyzeSequentialCompiledContext(ctx, h, ser.SequentialOptions{Cycles: 4, Seed: seed})
		if err != nil {
			return nil, err
		}
		ranked := rankTimed(log, rep.Susceptibility)
		gateU := make([]float64, len(rep.Gates))
		for i, g := range rep.Gates {
			gateU[i] = g.U
		}
		return rankedAnswer{name, rep.U, gateU, ranked}, nil
	})
}

func optimizeOp(sys *ser.System, name string, text []byte, seed uint64) op {
	return libraryOp(name, text, "ser.optimize", func(ctx context.Context, h *ser.Compiled, log *spanLog) (answer, error) {
		res, err := sys.OptimizeCompiledContext(ctx, h, ser.OptimizeOptions{
			Vectors: 4000, Iterations: 4, MaxBasis: 8, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return optAnswer{name, res}, nil
	})
}

// rankTimed runs a report's ranking under the strike.rank span.
func rankTimed(log *spanLog, rank func() []ser.SusceptibilityEntry) []ser.SusceptibilityEntry {
	defer log.begin("strike.rank")()
	return rank()
}
