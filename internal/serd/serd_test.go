package serd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/charlib"
	"repro/serclient"
)

// newTestServer boots a coarse-grid service on a fresh library.
func newTestServer(t *testing.T, cfg Config) (*ser.System, *Server, *serclient.Client, func()) {
	t.Helper()
	sys := ser.NewSystem(ser.CoarseCharacterization)
	cfg.System = sys
	srv := New(cfg)
	hs := httptest.NewServer(srv)
	cl := serclient.New(hs.URL, hs.Client())
	return sys, srv, cl, func() {
		hs.Close()
		srv.Close()
	}
}

// findJob scans the store for a job in the given status (IDs are
// random, so tests locate jobs by state, not by name).
func findJob(srv *Server, status string) *job {
	srv.jobs.mu.Lock()
	defer srv.jobs.mu.Unlock()
	for _, id := range srv.jobs.order {
		if j := srv.jobs.jobs[id]; j != nil && j.status == status {
			return j
		}
	}
	return nil
}

func TestHealthz(t *testing.T) {
	_, _, cl, done := newTestServer(t, Config{Workers: 2})
	defer done()
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Fatal("healthz not ok")
	}
}

// TestBatchMatchesSingleShot is the acceptance check that the serving
// tier is a pure transport: per-circuit U values of a batch response
// must equal single-shot ser.Analyze results bit-for-bit.
func TestBatchMatchesSingleShot(t *testing.T) {
	sys, _, cl, done := newTestServer(t, Config{Workers: 4})
	defer done()

	circuits := []string{"c17", "c432", "c499"}
	req := serclient.BatchRequest{}
	for _, name := range circuits {
		req.Analyze = append(req.Analyze, serclient.AnalyzeRequest{
			Circuit: name, Vectors: 1500, Seed: 7,
		})
	}
	resp, err := cl.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 {
		t.Fatalf("batch failed items: %d", resp.Failed)
	}
	if len(resp.Analyze) != len(circuits) {
		t.Fatalf("batch returned %d items, want %d", len(resp.Analyze), len(circuits))
	}
	for i, name := range circuits {
		item := resp.Analyze[i]
		if item.Error != "" || item.Result == nil {
			t.Fatalf("%s: batch error %q", name, item.Error)
		}
		c, err := ser.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Analyze(c, ser.AnalysisOptions{Vectors: 1500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if item.Result.U != rep.U {
			t.Errorf("%s: batch U = %v, single-shot U = %v (must be bit-identical)", name, item.Result.U, rep.U)
		}
		if item.Result.Gates != len(rep.Gates) {
			t.Errorf("%s: batch gates = %d, single-shot = %d", name, item.Result.Gates, len(rep.Gates))
		}
	}
}

// TestConcurrentAnalyzeSingleCharacterization asserts the singleflight
// property: N concurrent c432 requests against a cold library trigger
// exactly one characterization per gate class, shared across all of
// them.
func TestConcurrentAnalyzeSingleCharacterization(t *testing.T) {
	sys, _, cl, done := newTestServer(t, Config{Workers: 8})
	defer done()

	c, err := ser.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	wantClasses := int64(len(charlib.CircuitClasses(c)))
	if sys.Characterizations() != 0 {
		t.Fatalf("library not cold: %d characterizations", sys.Characterizations())
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := cl.Analyze(context.Background(), serclient.AnalyzeRequest{
				Circuit: "c432", Vectors: 1000, Seed: 3,
			})
			if err != nil {
				errs[i] = err
				return
			}
			us[i] = rep.U
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if us[i] != us[0] {
			t.Fatalf("request %d returned U=%v, request 0 returned U=%v", i, us[i], us[0])
		}
	}
	if got := sys.Characterizations(); got != wantClasses {
		t.Fatalf("%d concurrent requests caused %d characterizations, want exactly %d (one per class)",
			n, got, wantClasses)
	}
}

// TestClientDisconnectCancelsQueuedJob wedges the single worker with a
// direct blocker job, queues an HTTP analysis behind it, disconnects
// the client, and asserts the job is cancelled without ever running —
// and that the pool keeps serving afterwards.
func TestClientDisconnectCancelsQueuedJob(t *testing.T) {
	_, srv, cl, done := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	defer done()

	release := make(chan struct{})
	blockerRunning := make(chan struct{})
	if _, err := srv.submit("analyze", context.Background(), false, func(ctx context.Context) (any, error) {
		close(blockerRunning)
		<-release
		return &serclient.AnalyzeResponse{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-blockerRunning

	// Queue a sync request behind the blocker, then abandon it.
	reqCtx, cancelReq := context.WithCancel(context.Background())
	reqErr := make(chan error, 1)
	go func() {
		_, err := cl.Analyze(reqCtx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 1000})
		reqErr <- err
	}()
	waitFor(t, "request queued", func() bool { return srv.queue.Depth() == 1 })
	cancelReq()
	if err := <-reqErr; err == nil {
		t.Fatal("abandoned request returned no error")
	}
	// The client has given up; wait for the disconnect to propagate to
	// the server-side job context before freeing the worker, so the
	// dequeue deterministically sees an already-cancelled job.
	queued := findJob(srv, serclient.JobQueued)
	if queued == nil {
		t.Fatal("queued job not found in store")
	}
	waitFor(t, "server-side cancellation", func() bool { return queued.ctx.Err() != nil })

	close(release)
	waitFor(t, "job canceled", func() bool { return srv.met.canceled.Load() == 1 })
	if got := srv.queue.Skipped(); got != 1 {
		t.Fatalf("queue skipped %d jobs, want 1 (cancelled while queued must never run)", got)
	}

	// The pool must still serve.
	rep, err := cl.Analyze(context.Background(), serclient.AnalyzeRequest{Circuit: "c17", Vectors: 1000})
	if err != nil {
		t.Fatalf("pool wedged after cancellation: %v", err)
	}
	if rep.U <= 0 {
		t.Fatal("follow-up analysis returned non-positive U")
	}
}

func TestOversizedRequestsRejected(t *testing.T) {
	_, _, cl, done := newTestServer(t, Config{
		Workers: 2, MaxBodyBytes: 2048, MaxGates: 4, MaxVectors: 5000,
	})
	defer done()
	ctx := context.Background()

	// Body over MaxBodyBytes: rejected while streaming with 413.
	huge := strings.Repeat("# padding line\n", 400)
	_, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Netlist: huge + "INPUT(a)\nOUTPUT(a)\n"})
	if !serclient.IsStatus(err, http.StatusRequestEntityTooLarge) {
		t.Fatalf("oversized body: got %v, want 413", err)
	}

	// Netlist within the body limit but over MaxGates: 400.
	_, err = cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17"})
	if !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("oversized circuit: got %v, want 400", err)
	}

	// Vector count over MaxVectors: 400.
	_, err = cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 100000})
	if !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("oversized vectors: got %v, want 400", err)
	}

	// Neither circuit nor netlist: 400.
	_, err = cl.Analyze(ctx, serclient.AnalyzeRequest{})
	if !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("empty request: got %v, want 400", err)
	}
}

// TestBatchMixedValidInvalid: invalid items fail individually without
// poisoning valid ones.
func TestBatchMixedValidInvalid(t *testing.T) {
	_, _, cl, done := newTestServer(t, Config{Workers: 2, MaxVectors: 5000})
	defer done()

	inline := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
	resp, err := cl.Batch(context.Background(), serclient.BatchRequest{
		Analyze: []serclient.AnalyzeRequest{
			{Circuit: "c17", Vectors: 1000, Seed: 1},         // valid benchmark
			{Circuit: "no-such-circuit"},                     // unknown name
			{Netlist: "y = NAND(a\n"},                        // malformed netlist
			{Circuit: "c17", Vectors: 1000000},               // vectors over limit
			{Netlist: inline, Name: "tiny", Vectors: 500},    // valid inline
			{Circuit: "c17", Netlist: inline, Vectors: 1000}, // ambiguous source
			{Circuit: "c17", Async: true},                    // async inside batch
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Analyze) != 7 {
		t.Fatalf("batch returned %d items, want 7", len(resp.Analyze))
	}
	wantOK := []bool{true, false, false, false, true, false, false}
	for i, ok := range wantOK {
		item := resp.Analyze[i]
		if ok && (item.Error != "" || item.Result == nil) {
			t.Errorf("item %d: unexpected error %q", i, item.Error)
		}
		if !ok && (item.Error == "" || item.Result != nil) {
			t.Errorf("item %d: expected per-item error, got result %+v", i, item.Result)
		}
	}
	if resp.Failed != 5 {
		t.Fatalf("Failed = %d, want 5", resp.Failed)
	}
	if resp.Analyze[4].Result.Circuit != "tiny" {
		t.Fatalf("inline netlist name = %q, want tiny", resp.Analyze[4].Result.Circuit)
	}
}

func TestAsyncJobLifecycleAndMetrics(t *testing.T) {
	_, _, cl, done := newTestServer(t, Config{Workers: 2})
	defer done()
	ctx := context.Background()

	jr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jr.ID == "" {
		t.Fatal("async submission returned no job id")
	}
	final, err := cl.WaitJob(ctx, jr.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobDone || final.Analyze == nil {
		t.Fatalf("job finished %s (%s), want done with analyze result", final.Status, final.Error)
	}
	if final.Analyze.U <= 0 {
		t.Fatal("async analysis returned non-positive U")
	}

	if _, err := cl.Job(ctx, "job-999999"); !serclient.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown job: got %v, want 404", err)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests["analyze"] == 0 || m.Requests["jobs"] == 0 {
		t.Fatalf("request counters not populated: %+v", m.Requests)
	}
	if m.Characterizations == 0 {
		t.Fatal("characterization counter not populated")
	}
	lat, ok := m.LatencyMS["analyze"]
	if !ok || lat.Count == 0 {
		t.Fatalf("latency summary missing: %+v", m.LatencyMS)
	}
	if lat.P99 < lat.P50 {
		t.Fatalf("p99 %v < p50 %v", lat.P99, lat.P50)
	}
}

// TestCompiledCacheSecondRequestHits is the acceptance check for the
// compiled-circuit cache: a second identical request must be served
// from the cache — a compiled-cache hit, zero new characterizations,
// zero new cache entries — with a bit-identical result, and /metrics
// must expose the counters plus per-endpoint request counts.
func TestCompiledCacheSecondRequestHits(t *testing.T) {
	sys, _, cl, done := newTestServer(t, Config{Workers: 2})
	defer done()
	ctx := context.Background()

	req := serclient.AnalyzeRequest{Circuit: "c432", Vectors: 1200, Seed: 9}
	first, err := cl.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m1.CompiledCache.Misses != 1 || m1.CompiledCache.Entries != 1 {
		t.Fatalf("cold request: cache = %+v, want 1 miss / 1 entry", m1.CompiledCache)
	}
	chars := sys.Characterizations()
	if chars == 0 {
		t.Fatal("cold request characterized nothing")
	}

	second, err := cl.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.U != first.U {
		t.Fatalf("warm U = %v, cold U = %v (must be bit-identical)", second.U, first.U)
	}
	m2, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m2.CompiledCache.Hits != m1.CompiledCache.Hits+1 {
		t.Fatalf("second identical request was not a cache hit: %+v -> %+v", m1.CompiledCache, m2.CompiledCache)
	}
	if m2.CompiledCache.Misses != m1.CompiledCache.Misses || m2.CompiledCache.Entries != 1 {
		t.Fatalf("second identical request changed cache occupancy: %+v", m2.CompiledCache)
	}
	if got := sys.Characterizations(); got != chars {
		t.Fatalf("warm request ran %d new characterizations", got-chars)
	}
	if m2.CompiledCache.Gates <= 0 || m2.CompiledCache.Budget <= 0 {
		t.Fatalf("cache occupancy not reported: %+v", m2.CompiledCache)
	}
	// Per-endpoint request counts: two analyzes and the metrics probes.
	if m2.Requests["analyze"] != 2 {
		t.Fatalf("analyze request count = %d, want 2 (%+v)", m2.Requests["analyze"], m2.Requests)
	}
	if m2.Requests["metrics"] < 2 {
		t.Fatalf("metrics request count = %d, want >= 2", m2.Requests["metrics"])
	}
}

// TestCompiledCacheCanonicalKey: whitespace/comment/line-order
// permutations of one inline netlist share a single cache entry and
// return identical results — the content address is computed on the
// canonical form.
func TestCompiledCacheCanonicalKey(t *testing.T) {
	_, _, cl, done := newTestServer(t, Config{Workers: 2})
	defer done()
	ctx := context.Background()

	tidy := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = NAND(a, b)\ny = NOT(g1)\n"
	permuted := "# same circuit, scrambled\ny = NOT( g1 )\nOUTPUT(y)\nINPUT( b )\nINPUT(a)\n\ng1=NAND(a,b)\n"

	r1, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Netlist: tidy, Name: "tidy", Vectors: 800, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Netlist: permuted, Name: "scrambled", Vectors: 800, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.U != r1.U {
		t.Fatalf("permuted netlist U = %v, tidy U = %v (must be bit-identical)", r2.U, r1.U)
	}
	if r1.Circuit != "tidy" || r2.Circuit != "scrambled" {
		t.Fatalf("display names not preserved: %q, %q", r1.Circuit, r2.Circuit)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CompiledCache.Misses != 1 || m.CompiledCache.Hits != 1 || m.CompiledCache.Entries != 1 {
		t.Fatalf("permutations did not share one cache entry: %+v", m.CompiledCache)
	}
}

// TestInlineSequentialInitStateCanonicalRemap: inline netlists are
// analyzed in canonical form, whose DFF order may differ from the
// submitted declaration order — init_state is documented as
// declaration-order, so the server must remap it through the
// canonical permutation. The wire result must equal the in-process
// analysis of the canonical circuit with the correctly permuted
// init_state, and differ from the unpermuted one (proving the test
// can actually detect a missing remap).
func TestInlineSequentialInitStateCanonicalRemap(t *testing.T) {
	sys, _, cl, done := newTestServer(t, Config{Workers: 2})
	defer done()
	ctx := context.Background()

	// qb is declared before qa, but the canonical Kahn order sorts by
	// name, so the canonical DFF order is [qa qb] — a real permutation.
	// The single AND output makes a flipped flop visible only when the
	// OTHER flop's value is 1, and the two capture taps (ba vs nb) sit
	// at different electrical positions, so swapping the reset bits
	// measurably changes the latched unreliability.
	netlist := "INPUT(a)\nOUTPUT(y1)\n" +
		"qb = DFF(nb)\nqa = DFF(ba)\n" +
		"ba = BUFF(a)\nnb = NOT(ba)\n" +
		"y1 = AND(qa, qb)\n"
	init := []bool{true, false} // declaration order: qb=1, qa=0

	resp, err := cl.Analyze(ctx, serclient.AnalyzeRequest{
		Netlist: netlist, Name: "perm", Cycles: 3, Vectors: 1000, Seed: 5, InitState: init,
	})
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := ser.ParseBench(strings.NewReader(netlist), "perm")
	if err != nil {
		t.Fatal(err)
	}
	canon, _, err := ser.CanonicalContent(parsed)
	if err != nil {
		t.Fatal(err)
	}
	// Permute init from declaration order into canonical DFF order by
	// flop name.
	canonIdx := map[string]int{}
	for j, id := range canon.DFFs() {
		canonIdx[canon.Gates[id].Name] = j
	}
	want := make([]bool, len(init))
	permuted := false
	for i, id := range parsed.DFFs() {
		j := canonIdx[parsed.Gates[id].Name]
		want[j] = init[i]
		if j != i {
			permuted = true
		}
	}
	if !permuted {
		t.Fatal("test circuit's canonical DFF order equals declaration order; pick a permuting netlist")
	}
	opts := ser.SequentialOptions{Cycles: 3, Vectors: 1000, Seed: 5}
	opts.InitState = want
	ref, err := sys.AnalyzeSequential(canon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resp.U != ref.U || resp.Sequential.LatchedU != ref.LatchedU {
		t.Errorf("wire U/latched = %v/%v, canonical+remapped reference %v/%v",
			resp.U, resp.Sequential.LatchedU, ref.U, ref.LatchedU)
	}
	// Guard against vacuity: the unpermuted init must give a different
	// answer on this circuit.
	opts.InitState = init
	refWrong, err := sys.AnalyzeSequential(canon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if refWrong.U == ref.U {
		t.Fatal("init permutation does not affect U on this circuit; the remap assertion is vacuous")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSequentialRoundTrip is the acceptance check for the sequential
// flow: a /v1/analyze round trip with "cycles" set must match the
// in-process ser.AnalyzeSequential result exactly — the serving tier
// adds transport, not arithmetic. (encoding/json round-trips float64
// exactly, so equality here is bit-level.)
func TestSequentialRoundTrip(t *testing.T) {
	sys, _, cl, done := newTestServer(t, Config{Workers: 2})
	defer done()

	for _, name := range []string{"s27", "s344"} {
		resp, err := cl.Analyze(context.Background(), serclient.AnalyzeRequest{
			Circuit: name, Cycles: 4, Vectors: 1500, Seed: 7, Top: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Sequential == nil {
			t.Fatalf("%s: response missing sequential block", name)
		}
		c, err := ser.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.AnalyzeSequential(c, ser.SequentialOptions{
			Cycles: 4, Vectors: 1500, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.U != rep.U {
			t.Errorf("%s: U = %v over the wire, %v in process", name, resp.U, rep.U)
		}
		sq := resp.Sequential
		if sq.DirectU != rep.DirectU || sq.LatchedU != rep.LatchedU || sq.FIT != rep.FIT {
			t.Errorf("%s: sequential block differs: %+v vs direct=%v latched=%v fit=%v",
				name, sq, rep.DirectU, rep.LatchedU, rep.FIT)
		}
		if sq.Cycles != rep.Cycles || sq.Flops != rep.Flops {
			t.Errorf("%s: shape differs: %+v vs cycles=%d flops=%d", name, sq, rep.Cycles, rep.Flops)
		}
		soft := rep.Softest(5)
		if len(resp.GateReports) != len(soft) {
			t.Fatalf("%s: %d gate reports, want %d", name, len(resp.GateReports), len(soft))
		}
		for i, g := range soft {
			got := resp.GateReports[i]
			if got.Name != g.Name || got.U != g.U || got.GenWidth != g.GenWidth || got.Delay != g.Delay {
				t.Errorf("%s: gate report %d differs: %+v vs %+v", name, i, got, g)
			}
		}
	}
}

// TestSequentialValidation covers the new request limits: cycle caps,
// init_state without cycles, and the combinational flow rejecting
// sequential netlists with a 4xx (not a 5xx).
func TestSequentialValidation(t *testing.T) {
	_, srv, cl, done := newTestServer(t, Config{Workers: 1, MaxCycles: 8, MaxSeqFrames: 12})
	defer done()
	ctx := context.Background()

	if _, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "s27", Cycles: 9}); !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("over-limit cycles: got %v, want 400", err)
	}
	// s27 has 3 flops: cycles=5 blows the cycles x flops budget of 12
	// even though the per-axis cycle cap of 8 would allow it.
	if _, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "s27", Cycles: 5}); !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("over-budget cycles x flops: got %v, want 400", err)
	}
	// A wrong-length init_state is a client error (400), not a job
	// failure.
	if _, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "s27", Cycles: 4, InitState: []bool{true}}); !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("wrong-length init_state: got %v, want 400", err)
	}
	if _, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "s27", Cycles: -1}); !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("negative cycles: got %v, want 400", err)
	}
	if _, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17", InitState: []bool{true}}); !serclient.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("init_state without cycles: got %v, want 400", err)
	}
	// A sequential netlist through a combinational flow (cycles 0, or
	// optimize) is a client error: 400 naming the flops, sync or async.
	wantFlops := func(what string, err error) {
		t.Helper()
		if !serclient.IsStatus(err, http.StatusBadRequest) || !strings.Contains(err.Error(), "3 flip-flops") {
			t.Errorf("%s: got %v, want 400 naming the 3 flip-flops", what, err)
		}
	}
	_, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "s27", Vectors: 200})
	wantFlops("analyze", err)
	_, err = cl.Susceptibility(ctx, serclient.SusceptibilityRequest{Circuit: "s27", Vectors: 200})
	wantFlops("susceptibility", err)
	_, err = cl.Optimize(ctx, serclient.OptimizeRequest{Circuit: "s27", Vectors: 200})
	wantFlops("optimize", err)
	_, err = cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "s27", Vectors: 200})
	wantFlops("async analyze", err)
	_, err = cl.SusceptibilityAsync(ctx, serclient.SusceptibilityRequest{Circuit: "s27", Vectors: 200})
	wantFlops("async susceptibility", err)
	_, err = cl.OptimizeAsync(ctx, serclient.OptimizeRequest{Circuit: "s27", Vectors: 200})
	wantFlops("async optimize", err)
	srv.jobs.mu.Lock()
	jobs := len(srv.jobs.order)
	srv.jobs.mu.Unlock()
	if jobs != 0 {
		t.Errorf("rejected submissions created %d jobs", jobs)
	}
	// In a batch, each such item fails on its own.
	resp, err := cl.Batch(ctx, serclient.BatchRequest{
		Analyze:        []serclient.AnalyzeRequest{{Circuit: "s27", Vectors: 200}, {Circuit: "c17", Vectors: 200}},
		Optimize:       []serclient.OptimizeRequest{{Circuit: "s27", Vectors: 200}},
		Susceptibility: []serclient.SusceptibilityRequest{{Circuit: "s27", Vectors: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for what, msg := range map[string]string{
		"batch analyze":        resp.Analyze[0].Error,
		"batch optimize":       resp.Optimize[0].Error,
		"batch susceptibility": resp.Susceptibility[0].Error,
	} {
		if !strings.Contains(msg, "3 flip-flops") {
			t.Errorf("%s: item error %q, want one naming the 3 flip-flops", what, msg)
		}
	}
	if resp.Analyze[1].Error != "" || resp.Analyze[1].Result == nil {
		t.Errorf("combinational batch item failed: %q", resp.Analyze[1].Error)
	}
}

// TestSequentialInBatch: sequential and combinational items mix in one
// batch against the same shared library.
func TestSequentialInBatch(t *testing.T) {
	sys, _, cl, done := newTestServer(t, Config{Workers: 4})
	defer done()

	resp, err := cl.Batch(context.Background(), serclient.BatchRequest{
		Analyze: []serclient.AnalyzeRequest{
			{Circuit: "c17", Vectors: 800, Seed: 3},
			{Circuit: "s27", Cycles: 4, Vectors: 800, Seed: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 {
		t.Fatalf("failed items: %d (%+v)", resp.Failed, resp.Analyze)
	}
	if resp.Analyze[0].Result.Sequential != nil {
		t.Error("combinational item grew a sequential block")
	}
	item := resp.Analyze[1].Result
	if item.Sequential == nil {
		t.Fatal("sequential item missing sequential block")
	}
	c, _ := ser.Benchmark("s27")
	rep, err := sys.AnalyzeSequential(c, ser.SequentialOptions{Cycles: 4, Vectors: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if item.U != rep.U || item.Sequential.LatchedU != rep.LatchedU {
		t.Errorf("batch sequential result differs: %v vs %v", item.U, rep.U)
	}
}
