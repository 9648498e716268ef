// Package router implements the multi-node coordinator in front of a
// fleet of serd shards: one HTTP front door speaking exactly the serd
// wire protocol, consistent-hash routing every request to the shard
// that already holds its compiled circuit.
//
// Routing. Requests are keyed the same way the shards key their
// compiled-circuit caches — "name:<benchmark>" for built-ins, the
// SHA-256 of the canonical .bench form for inline netlists — and
// placed on a consistent-hash ring over the registered shard names.
// The same netlist therefore always lands on the shard whose
// engine.CompiledCircuit is already warm, and any permutation of one
// inline netlist routes identically because the key is computed on
// the canonical form. When a shard is down or saturated the request
// walks the ring to the next healthy shard (which recompiles; the
// engine is deterministic, so results are bit-identical either way).
//
// Health. Shards register statically (cmd/serd -route) or dynamically
// (POST /v1/shards; workers self-register with -register). A probe
// loop drives each shard's existing GET /readyz: a 503-saturated
// shard stops receiving new submissions, an unreachable one is marked
// down, and a forwarding failure marks a shard down immediately
// without waiting for the next probe. When no shard can accept work
// the router sheds with 429 + Retry-After (all alive but saturated)
// or fails with 502/503 (all down / none registered).
//
// Batches. /v1/batch items are fanned out as per-shard sub-batches
// keyed item-by-item, executed concurrently, and merged back in the
// original item order — so the merged response is exactly what one
// big serd would have produced (bit-identity is enforced by tests).
//
// Jobs. Async submissions are forwarded to their key's shard and the
// job ID → shard binding is remembered; GET /v1/jobs/{id} forwards to
// the owning shard and falls back to asking every shard (first
// non-404 answer wins), so results survive a router restart and a
// shard that recovered jobs from its own journal keeps serving them
// under their original IDs through the router.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
	"repro/serclient"
)

// Config tunes a Router. Zero values select the documented defaults.
type Config struct {
	// HealthInterval is the /readyz probe period (default 2s).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health-check round (default 2s). It is
	// independent of HealthInterval: probe rounds never overlap — a
	// slow round just delays the next tick.
	ProbeTimeout time.Duration
	// MaxBodyBytes caps a request body (default 4 MiB, matching serd).
	MaxBodyBytes int64
	// MaxBatchItems caps one batch's total item count across all
	// shards (default 1024; each shard's own per-sub-batch limit still
	// applies).
	MaxBatchItems int
	// KeepJobs bounds the job → shard routing map (default 8192; on
	// overflow the oldest bindings fall back to lookup fan-out).
	KeepJobs int
	// HTTPClient overrides the forwarding transport (default
	// http.DefaultClient — fine for tests; production routers should
	// raise the transport's MaxIdleConnsPerHost).
	HTTPClient *http.Client
	// Logger receives the router's structured log records (request
	// traces, forwards, failovers). Nil selects slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 8192
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	return c
}

// Router is the shard coordinator. Create with New, mount as an
// http.Handler, Close on shutdown.
type Router struct {
	cfg    Config
	mux    *http.ServeMux
	met    *routerMetrics
	log    *slog.Logger
	closed chan struct{}
	once   sync.Once

	mu     sync.Mutex
	shards map[string]*shard
	ring   *ring

	jobMu    sync.Mutex
	jobShard map[string]string // job ID -> shard name
	jobOrder []string
}

// New builds a router with no shards; register them with AddShard or
// POST /v1/shards. The health-probe loop starts immediately.
func New(cfg Config) *Router {
	rt := &Router{
		cfg:      cfg.withDefaults(),
		mux:      http.NewServeMux(),
		met:      newRouterMetrics(),
		closed:   make(chan struct{}),
		shards:   make(map[string]*shard),
		ring:     newRing(nil),
		jobShard: make(map[string]string),
	}
	rt.log = rt.cfg.Logger
	if rt.log == nil {
		rt.log = slog.Default()
	}
	rt.mux.HandleFunc("POST /v1/analyze", rt.counted("analyze", rt.proxySingle("analyze", "/v1/analyze")))
	rt.mux.HandleFunc("POST /v1/optimize", rt.counted("optimize", rt.proxySingle("optimize", "/v1/optimize")))
	rt.mux.HandleFunc("POST /v1/susceptibility", rt.counted("susceptibility", rt.proxySingle("susceptibility", "/v1/susceptibility")))
	rt.mux.HandleFunc("POST /v1/batch", rt.counted("batch", rt.handleBatch))
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.counted("jobs", rt.handleJob))
	rt.mux.HandleFunc("GET /v1/shards", rt.counted("shards", rt.handleShardsList))
	rt.mux.HandleFunc("POST /v1/shards", rt.counted("shards", rt.handleShardRegister))
	rt.mux.HandleFunc("DELETE /v1/shards/{name}", rt.counted("shards", rt.handleShardRemove))
	rt.mux.HandleFunc("POST /v1/route", rt.counted("route", rt.handleRoute))
	rt.mux.HandleFunc("GET /healthz", rt.counted("healthz", rt.handleHealthz))
	rt.mux.HandleFunc("GET /readyz", rt.counted("readyz", rt.handleReadyz))
	rt.mux.HandleFunc("GET /metrics", rt.counted("metrics", rt.handleMetrics))
	go rt.healthLoop()
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health-probe loop. Idempotent.
func (rt *Router) Close() { rt.once.Do(func() { close(rt.closed) }) }

// AddShard registers (or re-registers) a shard and probes it
// synchronously, so a successfully added shard is routable before
// AddShard returns. Re-registering an existing name replaces its URL
// and keeps its ring placement.
func (rt *Router) AddShard(name, url string) error {
	if name == "" || url == "" {
		return fmt.Errorf("router: shard name and url are both required")
	}
	url = strings.TrimRight(url, "/")
	sh := &shard{
		name: name,
		url:  url,
		cl:   serclient.NewWithOptions(url, serclient.Options{HTTPClient: rt.cfg.HTTPClient, DisableRetry: true}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	sh.probe(ctx)
	cancel()
	rt.mu.Lock()
	rt.shards[name] = sh
	rt.rebuildRingLocked()
	rt.mu.Unlock()
	return nil
}

// RemoveShard drops a shard from the ring, reporting whether it was
// registered. Keys it owned re-route to their ring successors; async
// jobs it already accepted remain reachable only while it is (job
// lookups stop fanning out to removed shards).
func (rt *Router) RemoveShard(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.shards[name]; !ok {
		return false
	}
	delete(rt.shards, name)
	rt.rebuildRingLocked()
	return true
}

func (rt *Router) rebuildRingLocked() {
	names := make([]string, 0, len(rt.shards))
	for name := range rt.shards {
		names = append(names, name)
	}
	rt.ring = newRing(names)
}

// shardList snapshots the registered shards.
func (rt *Router) shardList() []*shard {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// plan returns key's candidate shards in deterministic fallback order:
// the ring owner first, then the remaining shards in ring-walk order.
func (rt *Router) plan(key string) []*shard {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	seq := rt.ring.sequence(key)
	out := make([]*shard, 0, len(seq))
	for _, name := range seq {
		if sh, ok := rt.shards[name]; ok {
			out = append(out, sh)
		}
	}
	return out
}

// routingKey computes a request's placement key, aligned with the
// shards' compiled-circuit cache keys: built-ins by name, inline
// netlists by the SHA-256 of their canonical form (so permutations of
// one netlist route identically). A netlist that fails to parse or
// canonicalize routes by a hash of its raw bytes — the owning shard
// then reports the real parse error.
func routingKey(circuit, netlist, name string) string {
	switch {
	case circuit != "":
		return "name:" + circuit
	case netlist != "":
		if name == "" {
			name = "inline"
		}
		if c, err := bench.ParseStream(strings.NewReader(netlist), name); err == nil {
			if key, err := bench.ContentHash(c); err == nil {
				return key
			}
		}
		h := fnv.New64a()
		io.WriteString(h, netlist)
		return "raw:" + strconv.FormatUint(h.Sum64(), 16)
	default:
		return ""
	}
}

// counted wraps a handler with the shell every endpoint shares: the
// per-endpoint request counter, request-ID generation and propagation
// (the edge assigns one when the client did not), and a leveled
// request log line keyed by request ID. The ID is written back into
// the incoming request's headers so every downstream forward carries
// it to the owning shard.
func (rt *Router) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.met.countRequest(name)
		rid := r.Header.Get(trace.HeaderRequestID)
		if rid == "" {
			rid = trace.NewRequestID()
		}
		if rid != "" {
			r.Header.Set(trace.HeaderRequestID, rid)
			w.Header().Set(trace.HeaderRequestID, rid)
		}
		r = r.WithContext(trace.WithRequestID(r.Context(), rid))
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		status := sw.statusCode()
		lvl := slog.LevelDebug
		if status >= http.StatusInternalServerError {
			lvl = slog.LevelWarn
		}
		rt.log.Log(r.Context(), lvl, "request",
			"endpoint", name, "status", status, "request_id", rid,
			"duration_ms", float64(time.Since(t0))/float64(time.Millisecond))
	}
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	rt.met.errors.Add(1)
	rt.writeJSON(w, status, serclient.ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(trace.HeaderRequestID),
	})
}

// readBody reads a request body under the size limit. On failure it
// has already written the HTTP error.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			rt.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			rt.writeError(w, http.StatusBadRequest, "read request body: %v", err)
		}
		return nil, false
	}
	return data, true
}

// decode reads a request body under the size limit and decodes it by
// the rules of serclient.DecodeRequest, as a shard does. On failure it
// has already written the HTTP error: 413 for an oversized body, 400
// otherwise.
func (rt *Router) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := rt.readBody(w, r)
	if !ok {
		return false
	}
	if err := serclient.DecodeRequest(bytes.NewReader(body), v); err != nil {
		rt.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// routeProbe is the subset of every analysis request the router needs
// for placement; the owning shard performs full validation.
type routeProbe struct {
	Circuit string `json:"circuit"`
	Netlist string `json:"netlist"`
	Name    string `json:"name"`
	Async   bool   `json:"async"`
}

// proxySingle builds the handler for one single-circuit endpoint:
// compute the routing key, walk the candidate shards, forward the raw
// body, relay the first answer verbatim (so wire results are
// byte-identical to hitting the shard directly).
func (rt *Router) proxySingle(kind, path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := rt.readBody(w, r)
		if !ok {
			return
		}
		var probe routeProbe
		if err := json.Unmarshal(body, &probe); err != nil {
			rt.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		key := routingKey(probe.Circuit, probe.Netlist, probe.Name)
		rt.forwardWithFailover(w, r, path, key, body, probe.Async)
	}
}

// forwardWithFailover walks key's candidate shards, skipping ineligible
// ones, and relays the first shard answer. Transport failures mark the
// shard down and move on — except for an async submission that may
// already have been accepted (the connection failed after the request
// was sent), which must not be duplicated on another shard.
func (rt *Router) forwardWithFailover(w http.ResponseWriter, r *http.Request, path, key string, body []byte, async bool) {
	candidates := rt.plan(key)
	if len(candidates) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, "no shards registered")
		return
	}
	sawSaturated, sawTransportErr := false, false
	var lastErr error
	attempted := make(map[*shard]bool)
	// Pass 1 tries healthy shards only; pass 2 optimistically retries
	// the marked-down ones — the health state is a cache that can go
	// stale (a probe round timing out under load marks shards down for
	// up to one interval), and a real connection attempt is the
	// authoritative check. Saturated shards are never tried: they would
	// just answer 429 themselves.
	for pass := 0; pass < 2; pass++ {
		for i, sh := range candidates {
			if attempted[sh] {
				continue
			}
			if st := sh.state(); st.Up && st.Saturated {
				sawSaturated = true
				continue
			}
			if pass == 0 && !sh.eligible() {
				continue
			}
			attempted[sh] = true
			resp, err := rt.send(r.Context(), sh, http.MethodPost, path, body, r.Header)
			if err != nil {
				if r.Context().Err() != nil {
					return // client gone; nothing to write
				}
				sh.markDown(err)
				lastErr, sawTransportErr = err, true
				if async && !isDialError(err) {
					// The submission may have reached the shard before the
					// connection died; forwarding it elsewhere could run the
					// job twice under two IDs. Surface 502 and let the client
					// decide (serclient retries with the same Idempotency-Key,
					// which the next shard cannot see — but the same shard,
					// once back, can).
					rt.writeError(w, http.StatusBadGateway, "shard %s failed mid-submission: %v", sh.name, err)
					return
				}
				continue
			}
			if i > 0 || pass > 0 {
				rt.met.reroutes.Add(1)
			}
			rt.met.countForward(sh.name)
			rt.log.Info("forwarded",
				"path", path, "shard", sh.name, "status", resp.status,
				"request_id", trace.RequestID(r.Context()), "key", key,
				"rerouted", i > 0 || pass > 0)
			if async {
				rt.rememberJobFromResponse(resp, sh.name)
			}
			rt.relay(w, resp)
			return
		}
	}
	switch {
	case sawSaturated:
		rt.shed(w)
	case sawTransportErr:
		rt.writeError(w, http.StatusBadGateway, "all shards unreachable (last: %v)", lastErr)
	default:
		rt.writeError(w, http.StatusServiceUnavailable, "no shard available")
	}
}

// bufferedResponse is a fully read shard answer.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// send forwards one request to a shard and buffers the answer. A
// non-2xx status is NOT an error: shard answers (including 400/429/
// 503) are relayed verbatim, only transport failures return err.
func (rt *Router) send(ctx context.Context, sh *shard, method, path string, body []byte, hdr http.Header) (*bufferedResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hdr != nil {
		if key := hdr.Get("Idempotency-Key"); key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		if rid := hdr.Get(trace.HeaderRequestID); rid != "" {
			req.Header.Set(trace.HeaderRequestID, rid)
		}
	}
	resp, err := rt.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// relay copies a buffered shard answer to the client verbatim.
func (rt *Router) relay(w http.ResponseWriter, resp *bufferedResponse) {
	for _, h := range []string{"Content-Type", "Retry-After", trace.HeaderRequestID} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if resp.status/100 != 2 {
		rt.met.errors.Add(1)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// isDialError reports whether err failed before the request was sent
// (connection refused / no route), making a re-route provably safe
// even for non-idempotent submissions.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// shed answers an overload with 429 and a Retry-After derived from the
// least-backlogged saturated shard.
func (rt *Router) shed(w http.ResponseWriter) {
	rt.met.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterSeconds()))
	rt.writeError(w, http.StatusTooManyRequests, "all shards saturated; retry after the indicated delay")
}

// retryAfterSeconds scales the backoff hint with the smallest queue
// depth across saturated shards: the soonest any shard frees a slot.
func (rt *Router) retryAfterSeconds() int {
	minDepth := -1
	for _, sh := range rt.shardList() {
		st := sh.state()
		if st.Up && st.Saturated && (minDepth < 0 || st.QueueDepth < minDepth) {
			minDepth = st.QueueDepth
		}
	}
	if minDepth < 0 {
		return 1
	}
	return min(1+minDepth/4, 30)
}

// rememberJobFromResponse binds an accepted submission's job ID to the
// shard that accepted it (202 fresh, 200 idempotent duplicate).
func (rt *Router) rememberJobFromResponse(resp *bufferedResponse, shardName string) {
	if resp.status != http.StatusAccepted && resp.status != http.StatusOK {
		return
	}
	var jr serclient.JobResponse
	if err := json.Unmarshal(resp.body, &jr); err != nil || jr.ID == "" {
		return
	}
	rt.jobMu.Lock()
	if _, ok := rt.jobShard[jr.ID]; !ok {
		rt.jobShard[jr.ID] = shardName
		rt.jobOrder = append(rt.jobOrder, jr.ID)
		for len(rt.jobOrder) > rt.cfg.KeepJobs {
			delete(rt.jobShard, rt.jobOrder[0])
			rt.jobOrder = rt.jobOrder[1:]
		}
	}
	rt.jobMu.Unlock()
}

// handleJob forwards a job poll to the shard that accepted it, falling
// back to asking every shard (first non-404 answer wins) when the
// binding is unknown — a router restart loses the in-memory map, but
// the shards' journals still know their jobs.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path := "/v1/jobs/" + id
	rt.jobMu.Lock()
	name, ok := rt.jobShard[id]
	rt.jobMu.Unlock()
	if ok {
		rt.mu.Lock()
		sh := rt.shards[name]
		rt.mu.Unlock()
		if sh != nil {
			if resp, err := rt.send(r.Context(), sh, http.MethodGet, path, nil, r.Header); err == nil && resp.status != http.StatusNotFound {
				rt.relay(w, resp)
				return
			}
		}
	}
	rt.met.jobFanouts.Add(1)
	shards := rt.shardList()
	type answer struct {
		resp  *bufferedResponse
		shard string
	}
	answers := make(chan answer, len(shards))
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			if resp, err := rt.send(r.Context(), sh, http.MethodGet, path, nil, r.Header); err == nil && resp.status/100 == 2 {
				answers <- answer{resp, sh.name}
			}
		}(sh)
	}
	wg.Wait()
	close(answers)
	for a := range answers {
		rt.jobMu.Lock()
		if _, bound := rt.jobShard[id]; !bound {
			rt.jobShard[id] = a.shard
			rt.jobOrder = append(rt.jobOrder, id)
		}
		rt.jobMu.Unlock()
		rt.relay(w, a.resp)
		return
	}
	rt.writeError(w, http.StatusNotFound, "unknown job %q", id)
}

func (rt *Router) handleShardsList(w http.ResponseWriter, r *http.Request) {
	var resp serclient.ShardsResponse
	for _, sh := range rt.shardList() {
		resp.Shards = append(resp.Shards, sh.state())
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	var req serclient.ShardRegisterRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if err := rt.AddShard(req.Name, req.URL); err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.mu.Lock()
	sh := rt.shards[req.Name]
	rt.mu.Unlock()
	rt.writeJSON(w, http.StatusOK, sh.state())
}

func (rt *Router) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !rt.RemoveShard(name) {
		rt.writeError(w, http.StatusNotFound, "unknown shard %q", name)
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// handleRoute answers "where would this circuit go" without running
// anything: the routing key, the owning shard, and the fallback
// sequence. Operators use it to predict placement; tests use it to
// pick a victim shard.
func (rt *Router) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req serclient.RouteRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if req.Circuit == "" && req.Netlist == "" {
		rt.writeError(w, http.StatusBadRequest, "set one of circuit or netlist")
		return
	}
	key := routingKey(req.Circuit, req.Netlist, req.Name)
	rt.mu.Lock()
	seq := rt.ring.sequence(key)
	var url string
	if len(seq) > 0 {
		if sh := rt.shards[seq[0]]; sh != nil {
			url = sh.url
		}
	}
	rt.mu.Unlock()
	resp := serclient.RouteResponse{Key: key, Sequence: seq, URL: url}
	if len(seq) > 0 {
		resp.Shard = seq[0]
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, serclient.HealthResponse{
		OK:      true,
		UptimeS: time.Since(rt.met.start).Seconds(),
	})
}

// handleReadyz reports routability: 200 while at least one shard can
// accept new work, 503 otherwise.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var resp serclient.RouterReadyResponse
	for _, sh := range rt.shardList() {
		resp.Shards++
		st := sh.state()
		if st.Up && st.Ready {
			resp.EligibleShards++
		}
		if st.Up && st.Saturated {
			resp.SaturatedShards++
		}
	}
	resp.Ready = resp.EligibleShards > 0
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, status, resp)
}

// handleMetrics serves the router counters plus every shard's
// namespaced /metrics snapshot and the cross-shard aggregate. Shard
// snapshots are scraped live (concurrently, bounded by ProbeTimeout);
// a shard that cannot be scraped appears with its error instead of
// silently vanishing from the denominator. With ?format=prometheus
// the same snapshot is rendered as one text exposition whose shard
// series carry the registered shard name as a label.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shards := rt.shardList()
	snaps := make([]serclient.ShardMetrics, len(shards))
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			snaps[i].Info = sh.state()
			m, err := sh.cl.Metrics(ctx)
			if err != nil {
				snaps[i].Error = err.Error()
				return
			}
			snaps[i].Metrics = m
		}(i, sh)
	}
	wg.Wait()
	if r.URL.Query().Get("format") == "prometheus" {
		rt.writePrometheus(w, shards, snaps)
		return
	}
	resp := rt.met.snapshot()
	resp.Shards = make(map[string]serclient.ShardMetrics, len(shards))
	for i, sh := range shards {
		resp.Shards[sh.name] = snaps[i]
	}
	resp.Aggregate = aggregate(snaps)
	rt.writeJSON(w, http.StatusOK, resp)
}
