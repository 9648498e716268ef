package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// An answer is an op's result, checked after the op's timing ends.
type answer interface {
	// check verifies the answer's invariants (and, for served answers,
	// equality with the library answer for the same input).
	check() error
	// digest is the answer's canonical text for the pinned answer digest.
	digest() string
}

// A traceData is what a traced op recorded; layers attributes the op's
// wall interval [t0, t1] to layers in milliseconds, "other" included.
type traceData interface {
	layers(t0, t1 time.Time) map[string]float64
}

// An op is one closed-loop operation on generated inputs.
type op struct {
	// input names the op's input; it is printed with a failed check.
	input string
	// run performs the timed call. A traced op also returns what it
	// recorded; an untraced one returns a nil traceData.
	run func(ctx context.Context, id string, traced bool) (answer, traceData, error)
}

// errRefused marks an op the program shed with 429.
var errRefused = errors.New("refused (429)")

// outcome is one finished op.
type outcome struct {
	input   string
	index   int
	round   int
	traced  bool
	start   time.Time
	latency time.Duration
	failed  bool
	refused bool
	// layers and counts are set on traced ops that succeeded, spans on
	// those whose trace has intervals.
	layers map[string]float64
	counts map[string]float64
	spans  []span
	digest string
}

// counter is implemented by a traceData, or an answer, that reports
// per-op counts (evaluations, response size) next to the layer times.
type counter interface {
	counts() map[string]float64
}

// spanner is implemented by a traceData that holds the op's spans.
type spanner interface {
	spanList() []span
}

// dispenser hands out ops in whole rounds to the closed-loop callers.
// A new round starts only while the run, extended by half a round, fits
// the time budget, so every run completes whole rounds and each
// workload's op mix is the same in every run.
type dispenser struct {
	mu      sync.Mutex
	round   func(r int) []op
	budget  time.Duration
	start   time.Time
	cur     []op
	r, pos  int
	next    int
	stopped bool
}

type ticket struct {
	op    op
	index int
	round int
}

func (d *dispenser) take() (ticket, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return ticket{}, false
	}
	if d.pos == len(d.cur) {
		if d.cur != nil {
			elapsed := time.Since(d.start)
			perRound := elapsed / time.Duration(d.r+1)
			if elapsed+perRound/2 > d.budget {
				d.stopped = true
				return ticket{}, false
			}
			d.r++
		}
		d.cur, d.pos = d.round(d.r), 0
	}
	t := ticket{op: d.cur[d.pos], index: d.next, round: d.r}
	d.pos++
	d.next++
	return t, true
}

// runLoop drives conns closed-loop callers through whole rounds of ops
// for about budget, and returns every finished op in index order. When
// traceOdd is set, ops of odd rounds run traced and even rounds
// untraced, so both are measured under the same conditions. Failed
// checks are reported on log with the op's input.
func runLoop(ctx context.Context, conns int, budget time.Duration, round func(int) []op, traceOdd bool, log io.Writer) []outcome {
	d := &dispenser{round: round, budget: budget, start: time.Now()}
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := d.take()
				if !ok {
					return
				}
				o := runOp(ctx, t, traceOdd && t.round%2 == 1, log)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(outs, func(i, j int) bool { return outs[i].index < outs[j].index })
	return outs
}

// runOp times one op, then checks its answer and reduces its trace
// outside the timing.
func runOp(ctx context.Context, t ticket, traced bool, log io.Writer) outcome {
	o := outcome{input: t.op.input, index: t.index, round: t.round, traced: traced}
	id := fmt.Sprintf("op-%d", t.index)
	if traced {
		id = tracedPrefix + id
	}
	t0 := time.Now()
	ans, td, err := t.op.run(ctx, id, traced)
	t1 := time.Now()
	o.start, o.latency = t0, t1.Sub(t0)
	if err == nil {
		err = ans.check()
	}
	if err != nil {
		o.failed = true
		o.refused = errors.Is(err, errRefused)
		fmt.Fprintf(log, "FAILED op %d (%s): %v\n", t.index, t.op.input, err)
		return o
	}
	o.digest = ans.digest()
	if td != nil {
		o.layers = td.layers(t0, t1)
		if c, ok := td.(counter); ok {
			o.counts = c.counts()
		}
		if sp, ok := td.(spanner); ok {
			o.spans = sp.spanList()
		}
	}
	return o
}
