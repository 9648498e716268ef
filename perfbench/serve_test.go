package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/serclient"
)

func sumLayers(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestServedLayersSubtractions(t *testing.T) {
	// 10 ms round trip; the shard's ServeHTTP took 7 ms; the job
	// reports 5 ms, of which its stages account for 3 ms.
	s := &served{
		req:   &serveReq{jobs: []job{{circuit: "c432"}}},
		shard: 7 * time.Millisecond,
		jobs: []servedJob{{elapsed: 5, timings: &serclient.TimingsReport{Stages: []serclient.StageTiming{
			{Stage: "sertopt.sizing", MS: 1}, {Stage: "strike.electrical", MS: 2},
		}}}},
	}
	got := s.layers(at(0), at(10))
	want := map[string]float64{
		"router.hop":        3, // round trip - ServeHTTP
		"serd.overhead":     2, // ServeHTTP - job elapsed
		"serd.job":          2, // job elapsed - its stages
		"sertopt.sizing":    1,
		"strike.electrical": 2,
		"other":             0,
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if !near(sumLayers(got), 10) {
		t.Errorf("layers sum to %g, want the 10 ms wall", sumLayers(got))
	}
}

func TestServedLayersConcurrentBatch(t *testing.T) {
	// Two 4 ms batch items on two workers ran side by side: the batch's
	// job time is 4 ms, so the shard's 7 ms leave 3 ms of overhead and
	// each item's stages count at half weight.
	item := servedJob{elapsed: 4, timings: &serclient.TimingsReport{Stages: []serclient.StageTiming{{Stage: "strike.electrical", MS: 4}}}}
	s := &served{
		req:     &serveReq{jobs: []job{{circuit: "a"}, {circuit: "b"}}},
		shard:   7 * time.Millisecond,
		jobs:    []servedJob{item, item},
		workers: 2,
	}
	got := s.layers(at(0), at(9))
	if !near(got["router.hop"], 2) || !near(got["serd.overhead"], 3) || !near(got["strike.electrical"], 4) || !near(got["serd.job"], 0) {
		t.Errorf("batch layers = %v", got)
	}
	if !near(sumLayers(got), 9) {
		t.Errorf("layers sum to %g, want the 9 ms wall", sumLayers(got))
	}
}

func TestServedLayersClampKeepsSum(t *testing.T) {
	// A job reporting more time than the shard's ServeHTTP (clock
	// skew) is clamped; the difference lands in other.
	s := &served{
		req:   &serveReq{jobs: []job{{circuit: "c432"}}},
		shard: 4 * time.Millisecond,
		jobs:  []servedJob{{elapsed: 5}},
	}
	got := s.layers(at(0), at(6))
	for k, v := range got {
		if k != "other" && v < 0 {
			t.Errorf("%s = %g is negative", k, v)
		}
	}
	if !near(sumLayers(got), 6) {
		t.Errorf("layers sum to %g, want the 6 ms wall", sumLayers(got))
	}
}

// TestServeStackTraced drives the real shard and router with two
// closed-loop connections, traced and untraced rounds alternating, and
// checks that every answer equals the library's and every traced op
// reconciles to its wall time.
func TestServeStackTraced(t *testing.T) {
	ctx := context.Background()
	sys, err := characterize(ctx, []string{"c17"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := startServe(sys, serveConns, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	var ops []op
	for _, jobs := range [][]job{
		{{circuit: "c17"}},
		{{circuit: "c17", rows: true}},
		{{circuit: "c17"}, {circuit: "c17", rows: true}},
	} {
		r, err := newServeReq(jobs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			ref, err := j.reference(ctx, sys)
			if err != nil {
				t.Fatal(err)
			}
			r.refs = append(r.refs, ref)
		}
		ops = append(ops, serveOp(st, r, 2))
	}
	var log bytes.Buffer
	outs := runLoop(ctx, serveConns, 200*time.Millisecond, func(int) []op { return ops }, true, &log)
	traced := 0
	for _, o := range outs {
		if o.failed {
			t.Errorf("op %d (%s) failed", o.index, o.input)
			continue
		}
		if o.traced {
			traced++
			if !near(sumLayers(o.layers), ms(o.latency)) {
				t.Errorf("op %d: layers sum to %g ms, wall %g ms", o.index, sumLayers(o.layers), ms(o.latency))
			}
		}
	}
	if traced == 0 {
		t.Errorf("no traced ops in %d ops; log: %s", len(outs), log.String())
	}
}
