// Robustness tests for the durable job subsystem: crypto job IDs,
// eviction under pressure, retry/backoff with injected faults, panic
// containment, overload shedding, idempotent resubmission, in-process
// restart recovery, and graceful drain. The cross-process SIGKILL /
// SIGTERM variants live in cmd/serd.
package serd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/serclient"
)

// fastRetry keeps retry backoff negligible in tests.
func fastRetry(cfg Config) Config {
	cfg.RetryBaseDelay = time.Millisecond
	cfg.RetryMaxDelay = 4 * time.Millisecond
	return cfg
}

// newDurableServer is newTestServer plus the base URL (for raw
// requests with custom headers) over an optionally journaled config.
func newDurableServer(t *testing.T, cfg Config) (*ser.System, *Server, *serclient.Client, string, func()) {
	t.Helper()
	sys := ser.NewSystem(ser.CoarseCharacterization)
	cfg.System = sys
	srv := New(cfg)
	hs := httptest.NewServer(srv)
	cl := serclient.New(hs.URL, hs.Client())
	return sys, srv, cl, hs.URL, func() {
		hs.Close()
		srv.Close()
	}
}

// wedgeWorker occupies one worker with a job that blocks until the
// returned release function is called.
func wedgeWorker(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	running := make(chan struct{})
	if _, err := srv.submit("analyze", context.Background(), false, func(ctx context.Context) (any, error) {
		close(running)
		<-ch
		return &serclient.AnalyzeResponse{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	return func() { close(ch) }
}

// postAsync issues a raw async submission with explicit headers and
// decodes the job response.
func postAsync(t *testing.T, url, path, body, idemKey string) (int, serclient.JobResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr serclient.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode job response: %v", err)
	}
	return resp.StatusCode, jr
}

// TestJobIDsUnpredictable: job IDs are crypto/rand, not sequential —
// a guessable ID would let one client poll or cancel another's jobs,
// and sequential counters collide across journal-recovered restarts.
func TestJobIDsUnpredictable(t *testing.T) {
	format := regexp.MustCompile(`^job-[0-9a-f]{24}$`)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := newJobID()
		if !format.MatchString(id) {
			t.Fatalf("job id %q does not match job-<24 hex>", id)
		}
		if seen[id] {
			t.Fatalf("duplicate job id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestEvictionPressureKeepsLiveJobs: thousands of finished jobs
// arriving behind a few live ones must evict only the finished ones —
// the live jobs survive and remain pollable.
func TestEvictionPressureKeepsLiveJobs(t *testing.T) {
	st := newJobStore(8)
	ctx := context.Background()

	live := make([]*job, 3)
	for i := range live {
		jctx, cancel := context.WithCancel(ctx)
		live[i] = st.create("analyze", "", jctx, cancel)
	}
	for i := 0; i < 5000; i++ {
		jctx, cancel := context.WithCancel(ctx)
		j := st.create("analyze", "", jctx, cancel)
		st.finish(j, &serclient.AnalyzeResponse{}, nil)
	}
	for i, j := range live {
		if st.get(j.id) == nil {
			t.Fatalf("live job %d evicted under pressure from finished jobs", i)
		}
		if got := st.get(j.id).status; got != serclient.JobQueued {
			t.Fatalf("live job %d status = %s, want queued", i, got)
		}
	}
	st.mu.Lock()
	n, ord := len(st.jobs), len(st.order)
	st.mu.Unlock()
	if n > 8 || ord > 8 {
		t.Fatalf("store holds %d jobs / %d order entries, cap is 8", n, ord)
	}
}

// TestRetrySucceedsAfterInjectedFailures: two injected engine failures
// are retried with backoff and the third attempt succeeds; the final
// job reports all three attempts and the retry counter advances.
func TestRetrySucceedsAfterInjectedFailures(t *testing.T) {
	if err := faultinject.Enable("serd.engine.fail=2"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	_, _, cl, _, done := newDurableServer(t, fastRetry(Config{Workers: 1, MaxAttempts: 3}))
	defer done()
	ctx := context.Background()

	jr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(ctx, jr.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobDone || final.Analyze == nil {
		t.Fatalf("job finished %s (%s), want done after retries", final.Status, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two injected failures + success)", final.Attempts)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsRetried != 2 {
		t.Fatalf("jobs_retried = %d, want 2", m.JobsRetried)
	}
}

// TestWorkerPanicContained: a panicking job attempt becomes a failed
// attempt (and ultimately a failed job), never a dead process — the
// pool keeps serving afterwards.
func TestWorkerPanicContained(t *testing.T) {
	if err := faultinject.Enable("serd.worker.panic=-1"); err != nil {
		t.Fatal(err)
	}
	_, _, cl, _, done := newDurableServer(t, fastRetry(Config{Workers: 1, MaxAttempts: 2}))
	defer done()
	ctx := context.Background()

	jr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(ctx, jr.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobFailed || !strings.Contains(final.Error, "panicked") {
		t.Fatalf("job finished %s (%q), want failed with panic message", final.Status, final.Error)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want MaxAttempts = 2", final.Attempts)
	}

	faultinject.Disable()
	rep, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600})
	if err != nil {
		t.Fatalf("pool dead after contained panics: %v", err)
	}
	if rep.U <= 0 {
		t.Fatal("post-panic analysis returned non-positive U")
	}
}

// TestTerminalFailureAfterMaxAttempts: a persistently failing job
// stops retrying at MaxAttempts and surfaces the last error.
func TestTerminalFailureAfterMaxAttempts(t *testing.T) {
	if err := faultinject.Enable("serd.engine.fail=-1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	_, _, cl, _, done := newDurableServer(t, fastRetry(Config{Workers: 1, MaxAttempts: 3}))
	defer done()
	ctx := context.Background()

	jr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(ctx, jr.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobFailed || !strings.Contains(final.Error, "injected") {
		t.Fatalf("job finished %s (%q), want terminal failure with injected error", final.Status, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts = 3", final.Attempts)
	}
}

// TestJobDeadlineCancelsQueuedJob: an async job still queued when its
// JobTimeout deadline passes finishes canceled, never runs, and is
// never retried.
func TestJobDeadlineCancelsQueuedJob(t *testing.T) {
	_, srv, cl, _, done := newDurableServer(t, Config{Workers: 1, JobTimeout: 80 * time.Millisecond})
	defer done()
	ctx := context.Background()

	release := wedgeWorker(t, srv)
	jr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600})
	if err != nil {
		t.Fatal(err)
	}
	j := srv.jobs.get(jr.ID)
	if j == nil {
		t.Fatal("submitted job not in store")
	}
	waitFor(t, "job deadline", func() bool { return j.ctx.Err() != nil })
	release()

	final, err := cl.WaitJob(ctx, jr.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobCanceled {
		t.Fatalf("expired job finished %s, want canceled", final.Status)
	}
	if final.Attempts != 0 {
		t.Fatalf("expired queued job ran %d attempts, want 0", final.Attempts)
	}
}

// TestQueueFullShedsWith429 is the overload acceptance check: with the
// worker wedged and the FIFO full, a submission is shed with 429 and a
// Retry-After hint — while /healthz stays 200 (liveness), /readyz
// reports saturated, and the job already in flight still completes.
func TestQueueFullShedsWith429(t *testing.T) {
	_, srv, cl, _, done := newDurableServer(t, Config{Workers: 1, QueueDepth: 1})
	defer done()
	ctx := context.Background()

	release := wedgeWorker(t, srv)
	accepted, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600, Seed: 2})
	if err != nil {
		t.Fatalf("first async submission (queued) failed: %v", err)
	}

	_, err = cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600, Seed: 3})
	if !serclient.IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("saturated submission: got %v, want 429", err)
	}
	if d, ok := serclient.RetryAfter(err); !ok || d < time.Second {
		t.Fatalf("Retry-After hint = %v, %v; want >= 1s", d, ok)
	}

	// Liveness is unaffected by saturation; readiness reports it.
	h, err := cl.Health(ctx)
	if err != nil || !h.OK {
		t.Fatalf("healthz during saturation: %v %+v", err, h)
	}
	rr, err := cl.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Ready || !rr.Saturated {
		t.Fatalf("readyz during saturation = %+v, want not-ready saturated", rr)
	}

	release()
	final, err := cl.WaitJob(ctx, accepted.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobDone {
		t.Fatalf("in-flight job finished %s (%s), want done despite shedding", final.Status, final.Error)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RequestsShed != 1 {
		t.Fatalf("requests_shed = %d, want 1", m.RequestsShed)
	}
}

// TestIdempotencyKeyDedup: a second submission carrying the same
// Idempotency-Key returns the already-accepted job (200, same ID)
// instead of enqueueing a duplicate.
func TestIdempotencyKeyDedup(t *testing.T) {
	_, srv, _, url, done := newDurableServer(t, Config{Workers: 1})
	defer done()

	release := wedgeWorker(t, srv)
	defer release()

	body := `{"circuit":"c17","vectors":600,"seed":4,"async":true}`
	st1, jr1 := postAsync(t, url, "/v1/analyze", body, "dup-key-1")
	if st1 != http.StatusAccepted || jr1.ID == "" {
		t.Fatalf("first submission: status %d, id %q; want 202 + id", st1, jr1.ID)
	}
	st2, jr2 := postAsync(t, url, "/v1/analyze", body, "dup-key-1")
	if st2 != http.StatusOK {
		t.Fatalf("duplicate submission: status %d, want 200", st2)
	}
	if jr2.ID != jr1.ID {
		t.Fatalf("duplicate submission created job %q, want existing %q", jr2.ID, jr1.ID)
	}
	// A different key is a different submission.
	st3, jr3 := postAsync(t, url, "/v1/analyze", body, "dup-key-2")
	if st3 != http.StatusAccepted || jr3.ID == jr1.ID {
		t.Fatalf("distinct key: status %d, id %q; want a fresh 202 job", st3, jr3.ID)
	}
}

// TestRestartRecoveryInProcess: jobs journaled as queued by one server
// incarnation are re-enqueued by the next one (a fresh Server + System
// over the same journal directory), complete under their original IDs,
// and match the in-process reference analysis bit-for-bit. Idempotency
// keys survive the restart too.
func TestRestartRecoveryInProcess(t *testing.T) {
	dir := t.TempDir()
	jnl1, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, srv1, cl1, url1, _ := newDurableServer(t, Config{Workers: 1, Journal: jnl1})
	// srv1 is deliberately never shut down cleanly — a clean Close would
	// journal cancellations; abandoning it models a crash. Its wedged
	// worker is released at cleanup so Close can complete.
	release := wedgeWorker(t, srv1)
	t.Cleanup(func() {
		release()
		srv1.Close()
	})

	inline := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
	reqs := []serclient.AnalyzeRequest{
		{Circuit: "c17", Vectors: 800, Seed: 1},
		{Netlist: inline, Name: "tiny", Vectors: 500, Seed: 2},
	}
	var ids []string
	for _, req := range reqs {
		jr, err := cl1.AnalyzeAsync(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status != serclient.JobQueued {
			t.Fatalf("pre-crash job status = %s, want queued behind the wedge", jr.Status)
		}
		ids = append(ids, jr.ID)
	}
	stKey, jrKey := postAsync(t, url1, "/v1/analyze", `{"circuit":"c17","vectors":700,"seed":9,"async":true}`, "restart-key")
	if stKey != http.StatusAccepted {
		t.Fatalf("keyed submission: status %d, want 202", stKey)
	}
	ids = append(ids, jrKey.ID)
	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second journal handle on the same directory feeds a
	// fresh server with a cold library.
	jnl2, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(jnl2.Pending()); got != 3 {
		t.Fatalf("journal pending after crash = %d, want 3", got)
	}
	sys2, _, cl2, url2, done2 := newDurableServer(t, Config{Workers: 2, Journal: jnl2})
	defer func() {
		done2()
		jnl2.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	finals := make([]*serclient.JobResponse, len(ids))
	for i, id := range ids {
		final, err := cl2.WaitJob(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s after restart: %v", id, err)
		}
		if final.Status != serclient.JobDone || final.Analyze == nil {
			t.Fatalf("recovered job %s finished %s (%s), want done", id, final.Status, final.Error)
		}
		finals[i] = final
	}

	// Bit-identity against the in-process reference on the recovered
	// server's own system.
	c17, err := ser.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ref0, err := sys2.Analyze(c17, ser.AnalysisOptions{Vectors: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if finals[0].Analyze.U != ref0.U || finals[0].Analyze.Gates != len(ref0.Gates) {
		t.Errorf("recovered c17 U = %v, reference %v (must be bit-identical)", finals[0].Analyze.U, ref0.U)
	}
	parsed, err := ser.ParseBench(strings.NewReader(inline), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	canon, _, err := ser.CanonicalContent(parsed)
	if err != nil {
		t.Fatal(err)
	}
	ref1, err := sys2.Analyze(canon, ser.AnalysisOptions{Vectors: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if finals[1].Analyze.U != ref1.U {
		t.Errorf("recovered inline U = %v, reference %v (must be bit-identical)", finals[1].Analyze.U, ref1.U)
	}

	// The idempotency binding survived the restart: resubmitting with
	// the pre-crash key returns the recovered job, not a new one.
	stDup, jrDup := postAsync(t, url2, "/v1/analyze", `{"circuit":"c17","vectors":700,"seed":9,"async":true}`, "restart-key")
	if stDup != http.StatusOK || jrDup.ID != jrKey.ID {
		t.Fatalf("post-restart duplicate: status %d id %q, want 200 with original %q", stDup, jrDup.ID, jrKey.ID)
	}

	m, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsRecovered != 3 {
		t.Fatalf("jobs_recovered = %d, want 3", m.JobsRecovered)
	}
}

// TestOptimizeValidation: an unknown method and negative iterations or
// max_basis are client errors on every path — 400 on sync and async
// submissions, a per-item error in a batch, and, for a submission
// journaled before the check existed, a recovery failure on restart
// that never runs or retries the job.
func TestOptimizeValidation(t *testing.T) {
	rows := []struct {
		name, want string
		req        serclient.OptimizeRequest
	}{
		{"unknown method", "unknown method", serclient.OptimizeRequest{Circuit: "c17", Vectors: 200, Method: "bogus"}},
		{"negative iterations", "iterations", serclient.OptimizeRequest{Circuit: "c17", Vectors: 200, Iterations: -1}},
		{"negative max_basis", "max_basis", serclient.OptimizeRequest{Circuit: "c17", Vectors: 200, MaxBasis: -2}},
	}

	dir := t.TempDir()
	jnl, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(rows))
	for i, row := range rows {
		raw, err := json.Marshal(row.req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = newJobID()
		if err := jnl.Append(journal.Record{Job: ids[i], Event: journal.EventSubmitted, Kind: "optimize", Request: raw}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, cl, _, done := newDurableServer(t, fastRetry(Config{Workers: 1, Journal: jnl}))
	defer func() {
		done()
		jnl.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i, row := range rows {
		if _, err := cl.Optimize(ctx, row.req); !serclient.IsStatus(err, http.StatusBadRequest) {
			t.Errorf("%s sync: got %v, want 400", row.name, err)
		}
		if _, err := cl.OptimizeAsync(ctx, row.req); !serclient.IsStatus(err, http.StatusBadRequest) {
			t.Errorf("%s async: got %v, want 400", row.name, err)
		}
		br, err := cl.Batch(ctx, serclient.BatchRequest{Optimize: []serclient.OptimizeRequest{row.req}})
		if err != nil {
			t.Fatal(err)
		}
		if it := br.Optimize[0]; it.Result != nil || !strings.Contains(it.Error, row.want) {
			t.Errorf("%s batch: item error %q, want one naming %q", row.name, it.Error, row.want)
		}
		final, err := cl.WaitJob(ctx, ids[i], 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != serclient.JobFailed || final.Attempts != 0 || !strings.Contains(final.Error, row.want) {
			t.Errorf("%s replay: status %s, attempts %d, error %q; want failed at recovery with no attempt",
				row.name, final.Status, final.Attempts, final.Error)
		}
	}
}

// TestAnalyzeNegativeTop: analyze refuses a negative top as
// susceptibility does, on every path: 400 on a sync submission, 400 and
// no job on an async one, a per-item error in a batch, and, for a
// submission journaled before the check existed, a recovery failure
// with no attempt.
func TestAnalyzeNegativeTop(t *testing.T) {
	const want = "top must be >= 0"
	req := serclient.AnalyzeRequest{Circuit: "c17", Vectors: 200, Top: -1}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	id := newJobID()
	if err := jnl.Append(journal.Record{Job: id, Event: journal.EventSubmitted, Kind: "analyze", Request: raw}); err != nil {
		t.Fatal(err)
	}
	_, srv, cl, _, done := newDurableServer(t, fastRetry(Config{Workers: 1, Journal: jnl}))
	defer func() {
		done()
		jnl.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	final, err := cl.WaitJob(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobFailed || final.Attempts != 0 || !strings.Contains(final.Error, want) {
		t.Errorf("replay: status %s, attempts %d, error %q; want failed at recovery with no attempt", final.Status, final.Attempts, final.Error)
	}
	if _, err := cl.Analyze(ctx, req); !serclient.IsStatus(err, http.StatusBadRequest) || !strings.Contains(err.Error(), want) {
		t.Errorf("sync: got %v, want 400 naming top", err)
	}
	if _, err := cl.AnalyzeAsync(ctx, req); !serclient.IsStatus(err, http.StatusBadRequest) || !strings.Contains(err.Error(), want) {
		t.Errorf("async: got %v, want 400 naming top", err)
	}
	srv.jobs.mu.Lock()
	jobs := len(srv.jobs.order)
	srv.jobs.mu.Unlock()
	if jobs != 1 {
		t.Errorf("%d jobs after the rejected async submission, want only the replayed one", jobs)
	}
	br, err := cl.Batch(ctx, serclient.BatchRequest{Analyze: []serclient.AnalyzeRequest{req}})
	if err != nil {
		t.Fatal(err)
	}
	if it := br.Analyze[0]; it.Result != nil || !strings.Contains(it.Error, want) {
		t.Errorf("batch: item error %q, want one naming top", it.Error)
	}
}

// TestReplayAppliesAnalysisLimits: journal replay applies the analyze
// and susceptibility limits the submission paths apply, so a request
// journaled under looser limits (or damaged on disk) fails at recovery
// with no attempt instead of running. A journaled analyze carrying the
// deprecated approx block recovers to the exact answer.
func TestReplayAppliesAnalysisLimits(t *testing.T) {
	rows := []struct {
		name, kind, want, req string
	}{
		{"analyze vectors", "analyze", "vectors 5000 exceeds limit 2000", `{"circuit":"c17","vectors":5000,"seed":1}`},
		{"analyze cycles over limit", "analyze", "cycles 5 exceeds limit 4", `{"circuit":"s27","vectors":200,"cycles":5}`},
		{"analyze negative cycles", "analyze", "cycles must be >= 0", `{"circuit":"c17","vectors":200,"cycles":-1}`},
		{"analyze init_state without cycles", "analyze", "init_state requires cycles >= 1", `{"circuit":"c17","vectors":200,"init_state":[true]}`},
		{"susceptibility vectors", "susceptibility", "vectors 5000 exceeds limit 2000", `{"circuit":"c17","vectors":5000,"top":3}`},
		{"susceptibility cycles over limit", "susceptibility", "cycles 5 exceeds limit 4", `{"circuit":"s27","vectors":200,"cycles":5}`},
		{"susceptibility negative top", "susceptibility", "top must be >= 0", `{"circuit":"c17","vectors":200,"top":-1}`},
	}
	const approxReq = `{"circuit":"c17","vectors":600,"seed":4,"approx":{"rel_err":-1,"batch_vectors":1}}`

	dir := t.TempDir()
	jnl, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(rows))
	for i, row := range rows {
		ids[i] = newJobID()
		if err := jnl.Append(journal.Record{Job: ids[i], Event: journal.EventSubmitted, Kind: row.kind, Request: json.RawMessage(row.req)}); err != nil {
			t.Fatal(err)
		}
	}
	approxID := newJobID()
	if err := jnl.Append(journal.Record{Job: approxID, Event: journal.EventSubmitted, Kind: "analyze", Request: json.RawMessage(approxReq)}); err != nil {
		t.Fatal(err)
	}
	_, _, cl, _, done := newDurableServer(t, fastRetry(Config{Workers: 1, Journal: jnl, MaxVectors: 2000, MaxCycles: 4}))
	defer func() {
		done()
		jnl.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i, row := range rows {
		final, err := cl.WaitJob(ctx, ids[i], 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != serclient.JobFailed || final.Attempts != 0 || !strings.Contains(final.Error, row.want) {
			t.Errorf("%s replay: status %s, attempts %d, error %q; want failed at recovery with no attempt, naming %q",
				row.name, final.Status, final.Attempts, final.Error, row.want)
		}
	}

	final, err := cl.WaitJob(ctx, approxID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobDone || final.Analyze == nil {
		t.Fatalf("approx-carrying replay finished %s (%s), want done", final.Status, final.Error)
	}
	exact, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalBody(t, decoded(t, final.Analyze)), canonicalBody(t, decoded(t, exact)); got != want {
		t.Errorf("approx-carrying replay:\n got %s\nwant %s", got, want)
	}
}

// TestGracefulDrainKeepsQueuedJobsDurable: Shutdown lets the running
// job finish (journaled done), skips the queued one without running it
// (journaled queued — not lost, not started), refuses new submissions,
// and the next incarnation resumes the queued job.
func TestGracefulDrainKeepsQueuedJobsDurable(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("serd.engine.delay=-1:500ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	_, srv, cl, _, done := newDurableServer(t, Config{Workers: 1, Journal: jnl})
	defer done()
	ctx := context.Background()

	runningJr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool {
		j := srv.jobs.get(runningJr.ID)
		srv.jobs.mu.Lock()
		defer srv.jobs.mu.Unlock()
		return j != nil && j.status == serclient.JobRunning
	})
	queuedJr, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 600, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}

	shutCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Draining refuses new submissions and /readyz reflects it.
	if _, err := cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Async: true}); !serclient.IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("submission after shutdown: got %v, want 503", err)
	}
	rr, err := cl.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Ready || !rr.Draining {
		t.Fatalf("readyz after shutdown = %+v, want draining", rr)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal holds the drain outcome: running finished and
	// persisted, queued stayed queued with zero attempts.
	faultinject.Disable()
	jnl2, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if js := jnl2.Lookup(runningJr.ID); js == nil || js.Status != serclient.JobDone || len(js.Result) == 0 {
		t.Fatalf("running-at-shutdown job journaled as %+v, want done with result", js)
	}
	if js := jnl2.Lookup(queuedJr.ID); js == nil || js.Status != serclient.JobQueued || js.Attempts != 0 {
		t.Fatalf("queued-at-shutdown job journaled as %+v, want queued with 0 attempts", js)
	}

	// The next incarnation resumes the queued job to completion.
	sys2, _, cl2, _, done2 := newDurableServer(t, Config{Workers: 1, Journal: jnl2})
	defer func() {
		done2()
		jnl2.Close()
	}()
	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	defer wcancel()
	final, err := cl2.WaitJob(wctx, queuedJr.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serclient.JobDone || final.Analyze == nil {
		t.Fatalf("resumed job finished %s (%s), want done", final.Status, final.Error)
	}
	c17, err := ser.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys2.Analyze(c17, ser.AnalysisOptions{Vectors: 600, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if final.Analyze.U != ref.U {
		t.Errorf("resumed U = %v, reference %v (must be bit-identical)", final.Analyze.U, ref.U)
	}
	// The completed-before-shutdown job is served under its original ID.
	doneJr, err := cl2.Job(wctx, runningJr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doneJr.Status != serclient.JobDone || doneJr.Analyze == nil {
		t.Fatalf("pre-shutdown result not served after restart: %+v", doneJr)
	}
}
