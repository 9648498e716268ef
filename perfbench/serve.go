package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/router"
	"repro/internal/serd"
	"repro/internal/trace"
	"repro/serclient"
)

// tracedPrefix starts the request ID of every traced op, so the shard
// wrapper records only those.
const tracedPrefix = "t-"

// quiet discards the servers' request logs: a line per request on
// stderr would be part of what the benchmark measures.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// serveStack is one serd shard behind one router, both on loopback in
// this process, and the HTTP client the closed-loop callers share.
type serveStack struct {
	shard    *serd.Server
	rt       *router.Router
	servers  []*http.Server
	serving  sync.WaitGroup
	shardURL string
	url      string
	client   *http.Client
	timer    *shardTimer // nil unless traced
}

// startServe starts the shard and the router. With traced set, the
// shard's handler is wrapped to time ServeHTTP for traced requests.
func startServe(sys *ser.System, conns int, traced bool) (*serveStack, error) {
	st := &serveStack{
		shard:  serd.New(serd.Config{System: sys, ShardName: "s0", Logger: quiet}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}},
	}
	var shardH http.Handler = st.shard
	if traced {
		st.timer = &shardTimer{h: st.shard, byID: make(map[string]time.Duration)}
		shardH = st.timer
	}
	var err error
	if st.shardURL, err = st.listen(shardH); err != nil {
		st.close()
		return nil, err
	}
	var fwd http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 2 * conns}
	if traced {
		fwd = idTransport{fwd}
	}
	st.rt = router.New(router.Config{Logger: quiet, HTTPClient: &http.Client{Transport: fwd}})
	if err := st.rt.AddShard("s0", st.shardURL); err != nil {
		st.close()
		return nil, err
	}
	if st.url, err = st.listen(st.rt); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *serveStack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the servers, the router's probe loop and the shard's
// workers, and waits for the serving goroutines to return.
func (st *serveStack) close() {
	for _, srv := range st.servers {
		_ = srv.Close()
	}
	st.serving.Wait()
	if st.rt != nil {
		st.rt.Close()
	}
	st.shard.Close()
	st.client.CloseIdleConnections()
}

// metrics reads the shard's GET /metrics snapshot.
func (st *serveStack) metrics() (serclient.MetricsResponse, error) {
	var m serclient.MetricsResponse
	resp, err := st.client.Get(st.shardURL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// shardTimer wraps the shard's handler and records how long ServeHTTP
// took for each traced request, by request ID.
type shardTimer struct {
	h    http.Handler
	mu   sync.Mutex
	byID map[string]time.Duration
}

func (t *shardTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(trace.HeaderRequestID)
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	if strings.HasPrefix(id, tracedPrefix) {
		d := time.Since(t0)
		t.mu.Lock()
		t.byID[id] = d
		t.mu.Unlock()
	}
}

// take removes and returns a request's recorded ServeHTTP duration.
func (t *shardTimer) take(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.byID[id]
	delete(t.byID, id)
	return d, ok
}

// idTransport sends the request ID the router carries in each forwarded
// request's context as X-Request-ID. The router's batch fan-out leaves
// the header off, and the shard wrapper needs it to time a traced batch.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := trace.RequestID(r.Context()); id != "" && r.Header.Get(trace.HeaderRequestID) == "" {
		r = r.Clone(r.Context())
		r.Header.Set(trace.HeaderRequestID, id)
	}
	return t.base.RoundTrip(r)
}

// libRef is the library answer for one served input.
type libRef struct {
	u      float64
	gates  []ser.GateReport
	ranked []ser.SusceptibilityEntry
}

// A job is one analysis a request asks for: a built-in circuit by name
// or an inline netlist, reduced to a top-10 ranking or full gate rows.
type job struct {
	circuit string // built-in name, or the display name of an inline netlist
	inline  []byte // .bench text; nil for a built-in
	rows    bool   // full per-gate rows from /v1/analyze; else top-10 susceptibility
}

func (j job) key() string {
	if j.inline != nil {
		return "inline:" + j.circuit
	}
	return "name:" + j.circuit
}

func (j job) String() string {
	kind := "susceptibility top-10"
	if j.rows {
		kind = "analyze rows"
	}
	if j.inline != nil {
		return kind + " inline " + j.circuit
	}
	return kind + " " + j.circuit
}

const serveTop = 10

// wire renders the job as its request body, with the timings block
// asked for when traced.
func (j job) wire(traced bool) any {
	if j.rows {
		r := serclient.AnalyzeRequest{Circuit: j.circuit, Timings: traced}
		if j.inline != nil {
			r = serclient.AnalyzeRequest{Netlist: string(j.inline), Name: j.circuit, Timings: traced}
		}
		return r
	}
	r := serclient.SusceptibilityRequest{Circuit: j.circuit, Top: serveTop, Timings: traced}
	if j.inline != nil {
		r = serclient.SusceptibilityRequest{Netlist: string(j.inline), Name: j.circuit, Top: serveTop, Timings: traced}
	}
	return r
}

// reference computes the library answer for the job's input on a fresh
// handle: the same built-in, or the inline netlist in the canonical
// form the server analyzes it in.
func (j job) reference(ctx context.Context, sys *ser.System) (libRef, error) {
	var c *ser.Circuit
	var err error
	if j.inline != nil {
		if c, err = ser.ParseBench(bytes.NewReader(j.inline), j.circuit); err == nil {
			c, _, err = ser.CanonicalContent(c)
		}
	} else {
		c, err = ser.Benchmark(j.circuit)
	}
	if err != nil {
		return libRef{}, err
	}
	h, err := ser.Compile(c)
	if err != nil {
		return libRef{}, err
	}
	rep, err := sys.AnalyzeCompiledContext(ctx, h, ser.AnalysisOptions{})
	if err != nil {
		return libRef{}, err
	}
	return libRef{u: rep.U, gates: rep.Gates, ranked: rep.Susceptibility()}, nil
}

// servedJob is one job's decoded answer.
type servedJob struct {
	name    string
	u       float64
	top     []ser.SusceptibilityEntry
	elapsed float64 // job time the shard reports, ms
	timings *serclient.TimingsReport
}

// decodeJob checks one job's wire answer against the library answer
// and its own invariants.
func decodeJob(j job, ref libRef, susc *serclient.SusceptibilityResponse, an *serclient.AnalyzeResponse) (servedJob, error) {
	if j.rows {
		if an == nil {
			return servedJob{}, errors.New("no analyze result")
		}
		u := make([]float64, len(an.GateReports))
		for i, g := range an.GateReports {
			u[i] = g.U
			if i >= len(ref.gates) {
				continue
			}
			want := ref.gates[i]
			if g.Name != want.Name || g.U != want.U || g.GenWidth != want.GenWidth || g.Delay != want.Delay {
				return servedJob{}, fmt.Errorf("gate row %d is %+v, library answer %+v", i, g, want)
			}
		}
		if an.U != ref.u || len(an.GateReports) != len(ref.gates) {
			return servedJob{}, fmt.Errorf("U %.17g over %d rows, library answer %.17g over %d", an.U, len(an.GateReports), ref.u, len(ref.gates))
		}
		if err := checkSum(an.U, u); err != nil {
			return servedJob{}, err
		}
		top := make([]ser.SusceptibilityEntry, min(3, len(an.GateReports)))
		for i := range top {
			top[i] = ser.SusceptibilityEntry{Name: an.GateReports[i].Name, U: an.GateReports[i].U}
		}
		return servedJob{name: an.Circuit, u: an.U, top: top, elapsed: an.ElapsedMS, timings: an.Timings}, nil
	}
	if susc == nil {
		return servedJob{}, errors.New("no susceptibility result")
	}
	top := make([]ser.SusceptibilityEntry, len(susc.Entries))
	for i, e := range susc.Entries {
		top[i] = ser.SusceptibilityEntry{Name: e.Name, U: e.U, Share: e.Share, CumShare: e.CumShare}
	}
	want := ref.ranked[:min(serveTop, len(ref.ranked))]
	if susc.U != ref.u || len(top) != len(want) {
		return servedJob{}, fmt.Errorf("U %.17g with %d entries, library answer %.17g with %d", susc.U, len(top), ref.u, len(want))
	}
	for i := range top {
		if top[i] != want[i] {
			return servedJob{}, fmt.Errorf("rank %d is %+v, library answer %+v", i, top[i], want[i])
		}
	}
	if err := checkRanking(top, susc.U, false); err != nil {
		return servedJob{}, err
	}
	return servedJob{name: susc.Circuit, u: susc.U, top: top, elapsed: susc.ElapsedMS, timings: susc.Timings}, nil
}

// A serveReq is one request of the serve mix: a single job, or a
// /v1/batch of several.
type serveReq struct {
	jobs             []job
	path             string
	body, tracedBody []byte
	refs             []libRef
}

func newServeReq(jobs ...job) (*serveReq, error) {
	r := &serveReq{jobs: jobs}
	var plain, traced any
	switch {
	case len(jobs) > 1:
		r.path = "/v1/batch"
		var b, tb serclient.BatchRequest
		for _, j := range jobs {
			if j.rows {
				b.Analyze = append(b.Analyze, j.wire(false).(serclient.AnalyzeRequest))
				tb.Analyze = append(tb.Analyze, j.wire(true).(serclient.AnalyzeRequest))
			} else {
				b.Susceptibility = append(b.Susceptibility, j.wire(false).(serclient.SusceptibilityRequest))
				tb.Susceptibility = append(tb.Susceptibility, j.wire(true).(serclient.SusceptibilityRequest))
			}
		}
		plain, traced = b, tb
	case jobs[0].rows:
		r.path = "/v1/analyze"
		plain, traced = jobs[0].wire(false), jobs[0].wire(true)
	default:
		r.path = "/v1/susceptibility"
		plain, traced = jobs[0].wire(false), jobs[0].wire(true)
	}
	var err error
	if r.body, err = json.Marshal(plain); err != nil {
		return nil, err
	}
	if r.tracedBody, err = json.Marshal(traced); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *serveReq) String() string {
	if len(r.jobs) == 1 {
		return r.jobs[0].String()
	}
	parts := make([]string, len(r.jobs))
	for i, j := range r.jobs {
		parts[i] = j.String()
	}
	return "batch [" + strings.Join(parts, ", ") + "]"
}

// served is one response, decoded and checked after the op's timing.
type served struct {
	req  *serveReq
	data []byte
	jobs []servedJob
	// shard is the shard's ServeHTTP time; set on traced ops.
	shard   time.Duration
	workers int
}

func (s *served) check() error {
	if len(s.req.jobs) == 1 {
		var susc *serclient.SusceptibilityResponse
		var an *serclient.AnalyzeResponse
		var err error
		if s.req.jobs[0].rows {
			an = &serclient.AnalyzeResponse{}
			err = json.Unmarshal(s.data, an)
		} else {
			susc = &serclient.SusceptibilityResponse{}
			err = json.Unmarshal(s.data, susc)
		}
		if err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		sj, err := decodeJob(s.req.jobs[0], s.req.refs[0], susc, an)
		s.jobs = []servedJob{sj}
		return err
	}
	var b serclient.BatchResponse
	if err := json.Unmarshal(s.data, &b); err != nil {
		return fmt.Errorf("decode batch response: %w", err)
	}
	if b.Failed != 0 {
		return fmt.Errorf("batch reports %d failed items", b.Failed)
	}
	var ai, si int
	for i, j := range s.req.jobs {
		var sj servedJob
		var err error
		if j.rows {
			if ai >= len(b.Analyze) {
				return fmt.Errorf("batch answer lacks analyze item %d", ai)
			}
			sj, err = decodeJob(j, s.req.refs[i], nil, b.Analyze[ai].Result)
			ai++
		} else {
			if si >= len(b.Susceptibility) {
				return fmt.Errorf("batch answer lacks susceptibility item %d", si)
			}
			sj, err = decodeJob(j, s.req.refs[i], b.Susceptibility[si].Result, nil)
			si++
		}
		if err != nil {
			return fmt.Errorf("item %d (%s): %w", i, j, err)
		}
		s.jobs = append(s.jobs, sj)
	}
	return nil
}

func (s *served) digest() string {
	parts := make([]string, len(s.jobs))
	for i, j := range s.jobs {
		parts[i] = reportDigest(j.name, j.u, j.top)
	}
	return strings.Join(parts, "; ")
}

// layers splits a served op's wall time: the router hop is the round
// trip minus the shard's ServeHTTP, the serd overhead is ServeHTTP
// minus the time its jobs ran, and each job splits into the stages of
// its timings block plus the job's own residual (serd.job). A batch's
// items run concurrently on the shard's workers, and the wire carries
// no job start times, so a batch's job time is taken as the longer of
// its longest item and its summed item time over the workers, and its
// items' stage times are scaled to that.
func (s *served) layers(t0, t1 time.Time) map[string]float64 {
	wall := ms(t1.Sub(t0))
	shard := min(ms(s.shard), wall)
	out := map[string]float64{"router.hop": wall - shard}
	var sum, longest float64
	for _, j := range s.jobs {
		sum += j.elapsed
		longest = max(longest, j.elapsed)
	}
	jobs := sum
	if len(s.jobs) > 1 {
		jobs = max(longest, sum/float64(max(s.workers, 1)))
	}
	jobs = min(jobs, shard)
	scale := 1.0
	if sum > 0 {
		scale = jobs / sum
	}
	out["serd.overhead"] = shard - jobs
	for _, j := range s.jobs {
		rest := j.elapsed
		if j.timings != nil {
			for _, st := range j.timings.Stages {
				out[st.Stage] += st.MS * scale
				rest -= st.MS
			}
		}
		out["serd.job"] += max(rest, 0) * scale
	}
	// Clamping above keeps every entry non-negative; whatever it moved
	// lands in other, so the entries still sum to the wall time (other
	// is held at zero against float rounding).
	var total float64
	for _, v := range out {
		total += v
	}
	out["other"] = max(wall-total, 0)
	return out
}

func (s *served) counts() map[string]float64 {
	return map[string]float64{"serd.resp_kb": float64(len(s.data)) / 1024}
}

// serveOp posts one request through the router and reads the whole
// answer; decoding and checking happen after the timing.
func serveOp(st *serveStack, r *serveReq, workers int) op {
	return op{input: r.String(), run: func(ctx context.Context, id string, traced bool) (answer, traceData, error) {
		body := r.body
		if traced {
			body = r.tracedBody
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+r.path, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(trace.HeaderRequestID, id)
		resp, err := st.client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("read response: %w", err)
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return nil, nil, errRefused
		case resp.StatusCode != http.StatusOK:
			return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		s := &served{req: r, data: data, workers: workers}
		if !traced {
			return s, nil, nil
		}
		var ok bool
		if s.shard, ok = st.timer.take(id); !ok {
			return nil, nil, fmt.Errorf("no shard span recorded for %s", id)
		}
		return s, s, nil
	}}
}
