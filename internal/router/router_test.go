package router

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/serd"
	"repro/serclient"
)

// fleet is a router in front of n in-process serd shards, each a real
// serd.Server on its own httptest listener.
type fleet struct {
	rt     *Router
	client *serclient.Client // speaks to the router
	front  string            // the router's base URL, for raw HTTP
	shards []*fleetShard
}

type fleetShard struct {
	name string
	srv  *serd.Server
	hs   *httptest.Server
	cl   *serclient.Client // speaks to the shard directly
}

// newFleet boots n shards over one shared coarse-grid library and a
// router probing every 50ms, so health transitions settle fast enough
// for tests to wait on them.
func newFleet(t *testing.T, n int, cfg serd.Config) *fleet {
	t.Helper()
	sys := ser.NewSystem(ser.CoarseCharacterization)
	f := &fleet{}
	f.rt = New(Config{HealthInterval: 50 * time.Millisecond, ProbeTimeout: time.Second})
	t.Cleanup(f.rt.Close)
	for i := 0; i < n; i++ {
		shardCfg := cfg
		shardCfg.System = sys
		shardCfg.ShardName = fmt.Sprintf("s%d", i)
		srv := serd.New(shardCfg)
		hs := httptest.NewServer(srv)
		t.Cleanup(func() { hs.Close(); srv.Close() })
		sh := &fleetShard{name: shardCfg.ShardName, srv: srv, hs: hs, cl: serclient.New(hs.URL, nil)}
		if err := f.rt.AddShard(sh.name, hs.URL); err != nil {
			t.Fatal(err)
		}
		f.shards = append(f.shards, sh)
	}
	front := httptest.NewServer(f.rt)
	t.Cleanup(front.Close)
	f.client = serclient.New(front.URL, nil)
	f.front = front.URL
	return f
}

// standalone boots one plain serd server over its own library, the
// single-node reference the router results must be bit-identical to.
func standalone(t *testing.T, cfg serd.Config) *serclient.Client {
	t.Helper()
	cfg.System = ser.NewSystem(ser.CoarseCharacterization)
	srv := serd.New(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return serclient.New(hs.URL, nil)
}

func waitForCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stripVolatile zeroes the wall-clock fields so responses compare
// bit-identically across processes.
func stripVolatile(resp *serclient.BatchResponse) {
	for i := range resp.Analyze {
		if r := resp.Analyze[i].Result; r != nil {
			r.ElapsedMS = 0
		}
	}
	for i := range resp.Optimize {
		if r := resp.Optimize[i].Result; r != nil {
			r.ElapsedMS = 0
		}
	}
	for i := range resp.Susceptibility {
		if r := resp.Susceptibility[i].Result; r != nil {
			r.ElapsedMS = 0
		}
	}
}

func testBatch() serclient.BatchRequest {
	return serclient.BatchRequest{
		Analyze: []serclient.AnalyzeRequest{
			{Circuit: "c17", Vectors: 800, Seed: 7},
			{Circuit: "c432", Vectors: 800, Seed: 7},
			{Circuit: "c499", Vectors: 800, Seed: 7},
		},
		Susceptibility: []serclient.SusceptibilityRequest{
			{Circuit: "c17", Vectors: 800, Seed: 7, Top: 3},
		},
	}
}

// TestRouterSingleBitIdentity: a single request through the router
// answers exactly what the shard would answer directly — the router
// forwards raw bytes both ways.
func TestRouterSingleBitIdentity(t *testing.T) {
	f := newFleet(t, 2, serd.Config{Workers: 2})
	ref := standalone(t, serd.Config{Workers: 2})
	ctx := context.Background()
	req := serclient.AnalyzeRequest{Circuit: "c432", Vectors: 1000, Seed: 3}
	got, err := f.client.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got.ElapsedMS, want.ElapsedMS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("routed response differs from single-node:\n got %+v\nwant %+v", got, want)
	}
}

// TestRouterCacheAffinity: repeating one circuit through the router
// hits the compiled cache of exactly one shard — the consistent hash
// keeps a circuit on the shard that compiled it.
func TestRouterCacheAffinity(t *testing.T) {
	f := newFleet(t, 3, serd.Config{Workers: 2})
	ctx := context.Background()
	req := serclient.AnalyzeRequest{Circuit: "c499", Vectors: 500, Seed: 1}
	for i := 0; i < 3; i++ {
		if _, err := f.client.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := f.client.RouterMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for name, sm := range rm.Shards {
		if sm.Metrics == nil {
			t.Fatalf("shard %s not scraped: %s", name, sm.Error)
		}
		if sm.Metrics.Shard != name {
			t.Fatalf("shard %s snapshot labeled %q", name, sm.Metrics.Shard)
		}
		if sm.Metrics.CompiledCache.Hits > 0 {
			warm++
			if sm.Metrics.CompiledCache.Hits != 2 {
				t.Fatalf("shard %s: %d cache hits, want 2", name, sm.Metrics.CompiledCache.Hits)
			}
			if sm.Metrics.CompiledCache.HitRate <= 0 {
				t.Fatalf("shard %s: hit rate not populated", name)
			}
		}
	}
	if warm != 1 {
		t.Fatalf("%d shards saw cache hits, want exactly 1 (no affinity)", warm)
	}
	if rm.Aggregate.CompiledCache.Hits != 2 {
		t.Fatalf("aggregate cache hits = %d, want 2", rm.Aggregate.CompiledCache.Hits)
	}
}

// TestRouterBatchBitIdentity: a batch fanned out over three shards
// merges into exactly the single-node answer, index for index.
func TestRouterBatchBitIdentity(t *testing.T) {
	f := newFleet(t, 3, serd.Config{Workers: 2})
	ref := standalone(t, serd.Config{Workers: 2})
	ctx := context.Background()
	got, err := f.client.Batch(ctx, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Batch(ctx, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	stripVolatile(got)
	stripVolatile(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("routed batch differs from single-node:\n got %+v\nwant %+v", got, want)
	}
}

// TestRouterBatchValidation mirrors serd's own batch-limit behavior at
// the router tier, and checks that a sub-batch the shard rejects fails
// its items with the shard's answer rather than failing the batch.
func TestRouterBatchValidation(t *testing.T) {
	f := newFleet(t, 1, serd.Config{Workers: 1, MaxBatchItems: 2})
	ctx := context.Background()
	if _, err := f.client.Batch(ctx, serclient.BatchRequest{}); !serclient.IsStatus(err, 400) {
		t.Fatalf("empty batch: got %v, want HTTP 400", err)
	}
	big := serclient.BatchRequest{}
	for i := 0; i < 1025; i++ {
		big.Analyze = append(big.Analyze, serclient.AnalyzeRequest{Circuit: "c17"})
	}
	if _, err := f.client.Batch(ctx, big); !serclient.IsStatus(err, 400) {
		t.Fatalf("oversized batch: got %v, want HTTP 400", err)
	}
	resp, err := f.client.Batch(ctx, serclient.BatchRequest{Analyze: big.Analyze[:3]})
	if err != nil {
		t.Fatal(err)
	}
	if want := "serd: HTTP 400: batch has 3 items, limit is 2"; resp.Failed != 3 || resp.Analyze[2].Error != want {
		t.Fatalf("shard-rejected sub-batch: failed %d, item error %q, want 3 and %q", resp.Failed, resp.Analyze[2].Error, want)
	}
}

// TestRouterShardJoinMidBatch: registering a shard while a batch is in
// flight must not disturb the batch — and the joined fleet still
// answers bit-identically on the next run.
func TestRouterShardJoinMidBatch(t *testing.T) {
	f := newFleet(t, 1, serd.Config{Workers: 1})
	ref := standalone(t, serd.Config{Workers: 2})
	ctx := context.Background()

	if err := faultinject.Enable("serd.engine.delay=-1:150ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	type res struct {
		resp *serclient.BatchResponse
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		r, err := f.client.Batch(ctx, testBatch())
		ch <- res{r, err}
	}()

	// Join a second shard mid-flight (the delay keeps the batch busy).
	time.Sleep(80 * time.Millisecond)
	sys := ser.NewSystem(ser.CoarseCharacterization)
	srv := serd.New(serd.Config{System: sys, Workers: 2, ShardName: "joiner"})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	if _, err := f.client.RegisterShard(ctx, serclient.ShardRegisterRequest{Name: "joiner", URL: hs.URL}); err != nil {
		t.Fatal(err)
	}

	first := <-ch
	if first.err != nil {
		t.Fatal(first.err)
	}
	faultinject.Disable()

	want, err := ref.Batch(ctx, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.client.Batch(ctx, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	stripVolatile(first.resp)
	stripVolatile(second)
	stripVolatile(want)
	if !reflect.DeepEqual(first.resp, want) {
		t.Fatalf("mid-join batch differs from single-node:\n got %+v\nwant %+v", first.resp, want)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("post-join batch differs from single-node:\n got %+v\nwant %+v", second, want)
	}
}

// TestRouterRebalanceOnShardDeath: killing a circuit's owner re-routes
// it to a surviving shard, which recompiles and answers bit-identically.
func TestRouterRebalanceOnShardDeath(t *testing.T) {
	f := newFleet(t, 2, serd.Config{Workers: 2})
	ctx := context.Background()
	req := serclient.AnalyzeRequest{Circuit: "c880", Vectors: 600, Seed: 11}

	route, err := f.client.RouteLookup(ctx, serclient.RouteRequest{Circuit: "c880"})
	if err != nil {
		t.Fatal(err)
	}
	before, err := f.client.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	for _, sh := range f.shards {
		if sh.name == route.Shard {
			sh.hs.CloseClientConnections()
			sh.hs.Close()
		}
	}
	after, err := f.client.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	before.ElapsedMS, after.ElapsedMS = 0, 0
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("re-routed response differs:\n got %+v\nwant %+v", after, before)
	}
	rm, err := f.client.RouterMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Reroutes == 0 {
		t.Fatal("no reroute counted after shard death")
	}
}

// TestRouterAllSaturated: when every shard's queue is full the router
// sheds with 429 and a Retry-After hint instead of queuing blindly.
func TestRouterAllSaturated(t *testing.T) {
	f := newFleet(t, 2, serd.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	if err := faultinject.Enable("serd.engine.delay=-1:2s"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	// Fill each shard directly: one job running (asleep) + one queued.
	// The second post waits until the worker has taken the first job
	// off the queue; before that, the depth-1 queue would refuse it.
	for _, sh := range f.shards {
		for i := 0; i < 2; i++ {
			if _, err := sh.cl.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 100}); err != nil {
				t.Fatalf("saturating %s: %v", sh.name, err)
			}
			if i == 0 {
				waitForCond(t, 5*time.Second, sh.name+" to start its first job", func() bool {
					m, err := sh.cl.Metrics(ctx)
					return err == nil && m.JobsRunning == 1 && m.QueueDepth == 0
				})
			}
		}
	}
	waitForCond(t, 5*time.Second, "router to see all shards saturated", func() bool {
		sat := 0
		for _, sh := range f.rt.shardList() {
			st := sh.state()
			if st.Up && st.Saturated {
				sat++
			}
		}
		return sat == len(f.shards)
	})

	_, err := f.client.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 100})
	if !serclient.IsStatus(err, 429) {
		t.Fatalf("got %v, want HTTP 429", err)
	}
	if d, ok := serclient.RetryAfter(err); !ok || d < time.Second {
		t.Fatalf("Retry-After = %v (ok=%v), want >= 1s", d, ok)
	}
}

// TestRouterJobLookupSurvivesRouterRestart: a fresh router (empty job
// map) finds an old job by fanning the poll out to every shard.
func TestRouterJobLookupSurvivesRouterRestart(t *testing.T) {
	f := newFleet(t, 2, serd.Config{Workers: 2})
	ctx := context.Background()
	jr, err := f.client.AnalyzeAsync(ctx, serclient.AnalyzeRequest{Circuit: "c432", Vectors: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	done, err := f.client.WaitJob(ctx, jr.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != serclient.JobDone {
		t.Fatalf("job status %q: %s", done.Status, done.Error)
	}

	// A brand-new router over the same shards has no job->shard map.
	rt2 := New(Config{HealthInterval: 50 * time.Millisecond})
	t.Cleanup(rt2.Close)
	for _, sh := range f.shards {
		if err := rt2.AddShard(sh.name, sh.hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	front2 := httptest.NewServer(rt2)
	t.Cleanup(front2.Close)
	cl2 := serclient.New(front2.URL, nil)
	again, err := cl2.Job(ctx, jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	done.Analyze.ElapsedMS, again.Analyze.ElapsedMS = 0, 0
	if !reflect.DeepEqual(done, again) {
		t.Fatalf("restarted router served a different job:\n got %+v\nwant %+v", again, done)
	}
	if rt2.met.jobFanouts.Load() == 0 {
		t.Fatal("fresh router answered without fanning out")
	}
}

// TestRouterNoShards: a router with an empty ring refuses work with
// 503 rather than hanging.
func TestRouterNoShards(t *testing.T) {
	rt := New(Config{HealthInterval: 50 * time.Millisecond})
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	cl := serclient.New(front.URL, nil)
	ctx := context.Background()
	if _, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17"}); !serclient.IsStatus(err, 503) {
		t.Fatalf("got %v, want HTTP 503", err)
	}
	if rr, err := cl.Ready(ctx); err != nil || rr.Ready {
		t.Fatalf("empty router ready = %+v, %v; want not ready", rr, err)
	}
}
