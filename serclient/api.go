// Package serclient is the Go client for the serd analysis service
// (cmd/serd): typed wrappers over the HTTP/JSON API plus the wire
// types the server itself serves. Keeping the wire schema here — in a
// public package the server imports — gives client and server one
// source of truth without exposing server internals.
package serclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// DecodeRequest decodes one request body the way serd and its router
// both do: exactly one JSON value, no field the target type lacks, and
// nothing after the value but whitespace. Strictness is the point — a
// mistyped field or a second value must be refused with 400, never
// silently ignored into a default analysis. Errors from r (such as a
// body-size limit) are returned unwrapped.
func DecodeRequest(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r))
	if err != nil {
		return err
	}
	// Worded as encoding/json words the same fault in json.Unmarshal.
	if rest = bytes.TrimLeft(rest, " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// AnalyzeRequest asks for one ASERTA analysis. Exactly one of Circuit
// (a built-in benchmark name, e.g. "c432") or Netlist (an inline
// ISCAS-85 ".bench" body) must be set.
type AnalyzeRequest struct {
	Circuit string `json:"circuit,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	// Name names an inline netlist (default "inline").
	Name string `json:"name,omitempty"`
	// Vectors is the random-vector count (server default applies when
	// 0; capped by the server's MaxVectors limit).
	Vectors int    `json:"vectors,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// POLoad is the primary-output latch load in farads (default 2 fF).
	POLoad float64 `json:"po_load,omitempty"`
	// Top limits the per-gate report to the N softest gates
	// (0 = all gates, in netlist order).
	Top int `json:"top,omitempty"`
	// Cycles switches to the sequential (ISCAS-89) analysis with this
	// multi-cycle fault-propagation horizon. 0 selects the
	// combinational ASERTA flow, which rejects circuits containing
	// flip-flops; any sequential netlist needs cycles >= 1.
	Cycles int `json:"cycles,omitempty"`
	// InitState is the flop reset state in netlist DFF order (nil =
	// all zeros). Only meaningful with Cycles > 0.
	InitState []bool `json:"init_state,omitempty"`
	// Async makes the server return 202 + a job id immediately; poll
	// GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
	// Timings asks the server to attach a per-stage timing breakdown
	// (see TimingsReport) to the response. Off by default: timing
	// fields are wall-clock and vary run to run, so bit-identity
	// comparisons should leave this unset.
	Timings bool `json:"timings,omitempty"`
	// LaneWords selected the lane width of a simulation engine that
	// has been removed. The field stays so that older clients and
	// journaled requests that carry it still decode.
	//
	// Deprecated: accepted and ignored.
	LaneWords int `json:"lane_words,omitempty"`
	// Approx selected a sampled analysis mode that has been removed.
	// The field stays so that older clients and journaled requests that
	// carry it still decode; its content is not inspected.
	//
	// Deprecated: accepted and ignored.
	Approx json.RawMessage `json:"approx,omitempty"`
}

// GateResult is one gate's analysis summary (all times in seconds).
type GateResult struct {
	Name     string  `json:"name"`
	U        float64 `json:"u"`
	GenWidth float64 `json:"gen_width"`
	Delay    float64 `json:"delay"`
}

// SequentialResult carries the extra fields of a sequential (Cycles >
// 0) analysis: the U split, the flop count and horizon, and the FIT
// conversion.
type SequentialResult struct {
	Cycles int `json:"cycles"`
	Flops  int `json:"flops"`
	// DirectU counts strikes latched at POs in the strike cycle;
	// LatchedU strikes captured into flops and re-emitted in later
	// cycles. The response's top-level U is their sum.
	DirectU  float64 `json:"direct_u"`
	LatchedU float64 `json:"latched_u"`
	// FIT is the whole-circuit soft-error rate (failures / 1e9 h).
	FIT float64 `json:"fit"`
}

// AnalyzeResponse is the ASERTA result for one circuit.
type AnalyzeResponse struct {
	Circuit string  `json:"circuit"`
	Gates   int     `json:"gates"`
	U       float64 `json:"u"`
	// GateReports lists per-gate results (possibly truncated to the
	// request's Top softest gates).
	GateReports []GateResult `json:"gate_reports,omitempty"`
	// Sequential is set when the request asked for a multi-cycle
	// sequential analysis (Cycles > 0).
	Sequential *SequentialResult `json:"sequential,omitempty"`
	ElapsedMS  float64           `json:"elapsed_ms"`
	// Timings is the per-stage breakdown of ElapsedMS, present only
	// when the request set Timings.
	Timings *TimingsReport `json:"timings,omitempty"`
}

// SusceptibilityRequest asks for the ranked per-gate susceptibility of
// one circuit: every gate's share of the circuit unreliability, most
// susceptible first — the selective-hardening shopping list. Exactly
// one of Circuit or Netlist must be set; Cycles >= 1 selects the
// sequential flow for netlists with flip-flops.
type SusceptibilityRequest struct {
	Circuit string  `json:"circuit,omitempty"`
	Netlist string  `json:"netlist,omitempty"`
	Name    string  `json:"name,omitempty"`
	Vectors int     `json:"vectors,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	POLoad  float64 `json:"po_load,omitempty"`
	// Top truncates the ranking to the N most susceptible gates
	// (0 = all gates).
	Top int `json:"top,omitempty"`
	// Cycles selects the sequential analysis (see AnalyzeRequest).
	Cycles    int    `json:"cycles,omitempty"`
	InitState []bool `json:"init_state,omitempty"`
	Async     bool   `json:"async,omitempty"`
	// Timings asks for the per-stage breakdown (see AnalyzeRequest).
	Timings bool `json:"timings,omitempty"`
	// LaneWords is kept for older clients (see AnalyzeRequest).
	//
	// Deprecated: accepted and ignored.
	LaneWords int `json:"lane_words,omitempty"`
}

// SusceptibilityEntry is one ranked per-gate contribution.
type SusceptibilityEntry struct {
	Name string  `json:"name"`
	U    float64 `json:"u"`
	// Share is U over the circuit total; CumShare the cumulative share
	// through this rank.
	Share    float64 `json:"share"`
	CumShare float64 `json:"cum_share"`
}

// SusceptibilityResponse is the ranked susceptibility for one circuit.
type SusceptibilityResponse struct {
	Circuit string `json:"circuit"`
	// Gates is the full ranked gate count before Top truncation.
	Gates int     `json:"gates"`
	U     float64 `json:"u"`
	// Entries is the ranking, most susceptible first (possibly
	// truncated to the request's Top).
	Entries []SusceptibilityEntry `json:"entries"`
	// Sequential is set when the request asked for the multi-cycle
	// flow (Cycles > 0).
	Sequential *SequentialResult `json:"sequential,omitempty"`
	ElapsedMS  float64           `json:"elapsed_ms"`
	// Timings is the per-stage breakdown of ElapsedMS, present only
	// when the request set Timings.
	Timings *TimingsReport `json:"timings,omitempty"`
}

// OptimizeRequest asks for one SERTOPT optimization run.
type OptimizeRequest struct {
	Circuit string `json:"circuit,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	Name    string `json:"name,omitempty"`
	// VDDs and Vths are the designer's voltage menus (defaults
	// {0.8, 1.0} V and {0.2, 0.3} V as in the paper's Table 1).
	VDDs       []float64 `json:"vdds,omitempty"`
	Vths       []float64 `json:"vths,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	MaxBasis   int       `json:"max_basis,omitempty"`
	Vectors    int       `json:"vectors,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	// Method is "sqp" (default) or "anneal".
	Method string `json:"method,omitempty"`
	Async  bool   `json:"async,omitempty"`
	// Timings asks for the per-stage breakdown (see AnalyzeRequest).
	Timings bool `json:"timings,omitempty"`
	// LaneWords is kept for older clients (see AnalyzeRequest).
	//
	// Deprecated: accepted and ignored.
	LaneWords int `json:"lane_words,omitempty"`
}

// OptimizeResponse is the SERTOPT outcome for one circuit.
type OptimizeResponse struct {
	Circuit     string  `json:"circuit"`
	UDecrease   float64 `json:"u_decrease"`
	AreaRatio   float64 `json:"area_ratio"`
	EnergyRatio float64 `json:"energy_ratio"`
	DelayRatio  float64 `json:"delay_ratio"`
	BaselineU   float64 `json:"baseline_u"`
	OptimizedU  float64 `json:"optimized_u"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Timings is the per-stage breakdown of ElapsedMS, present only
	// when the request set Timings.
	Timings *TimingsReport `json:"timings,omitempty"`
}

// StageTiming is one pipeline stage's share of a request's elapsed
// time.
type StageTiming struct {
	// Stage names the pipeline stage (e.g. "strike.electrical",
	// "logicsim.sensitization", "engine.compile").
	Stage string `json:"stage"`
	// MS is the stage's wall-clock duration in milliseconds.
	MS float64 `json:"ms"`
}

// TimingsReport breaks a response's elapsed time into its pipeline
// stages. Stages are flat and non-overlapping, so
// sum(Stages[].MS) + OtherMS == TotalMS (within float tolerance), and
// TotalMS equals the response's ElapsedMS.
type TimingsReport struct {
	// Stages lists the instrumented stages in completion order.
	Stages []StageTiming `json:"stages"`
	// OtherMS is the residual — total minus the instrumented stages:
	// request decode, cache lookups, glue.
	OtherMS float64 `json:"other_ms"`
	// TotalMS is the end-to-end job time, equal to ElapsedMS.
	TotalMS float64 `json:"total_ms"`
}

// BatchRequest bundles many analyses and/or optimizations into one
// round trip. Items run concurrently on the server's worker pool; the
// response reports every item, successes and failures alike.
type BatchRequest struct {
	Analyze        []AnalyzeRequest        `json:"analyze,omitempty"`
	Optimize       []OptimizeRequest       `json:"optimize,omitempty"`
	Susceptibility []SusceptibilityRequest `json:"susceptibility,omitempty"`
}

// AnalyzeBatchItem is one batch analysis outcome: Result on success,
// Error otherwise.
type AnalyzeBatchItem struct {
	Error  string           `json:"error,omitempty"`
	Result *AnalyzeResponse `json:"result,omitempty"`
}

// OptimizeBatchItem is one batch optimization outcome.
type OptimizeBatchItem struct {
	Error  string            `json:"error,omitempty"`
	Result *OptimizeResponse `json:"result,omitempty"`
}

// SusceptibilityBatchItem is one batch susceptibility outcome.
type SusceptibilityBatchItem struct {
	Error  string                  `json:"error,omitempty"`
	Result *SusceptibilityResponse `json:"result,omitempty"`
}

// BatchResponse mirrors the request arrays index-for-index.
type BatchResponse struct {
	Analyze        []AnalyzeBatchItem        `json:"analyze,omitempty"`
	Optimize       []OptimizeBatchItem       `json:"optimize,omitempty"`
	Susceptibility []SusceptibilityBatchItem `json:"susceptibility,omitempty"`
	// Failed counts items that did not produce a result.
	Failed int `json:"failed"`
}

// Job states reported by GET /v1/jobs/{id}.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobResponse is the status (and, once done, the result) of a job.
type JobResponse struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"` // "analyze", "optimize" or "susceptibility"
	Status string `json:"status"`
	// RequestID is the X-Request-ID of the submission that created the
	// job. It is journaled with the job, so it survives restarts and
	// ties every poll, journal record and worker log line back to the
	// originating request.
	RequestID string `json:"request_id,omitempty"`
	// Attempts counts execution attempts started so far. A job queued
	// with Attempts > 0 is waiting for a retry after a failed attempt
	// (Error then holds the last attempt's failure).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Exactly one of the three is set once Status is "done".
	Analyze        *AnalyzeResponse        `json:"analyze,omitempty"`
	Optimize       *OptimizeResponse       `json:"optimize,omitempty"`
	Susceptibility *SusceptibilityResponse `json:"susceptibility,omitempty"`
}

// HealthResponse is the GET /healthz body: pure liveness — 200 as
// long as the process serves HTTP, regardless of load or recovery
// state. Use GET /readyz for routability.
type HealthResponse struct {
	OK      bool    `json:"ok"`
	UptimeS float64 `json:"uptime_s"`
}

// ReadyResponse is the GET /readyz body, served with 200 when the
// instance should receive traffic and 503 otherwise (while replaying
// its journal, while the job queue is saturated, or once shutdown has
// begun).
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Replaying is true until journal recovery has re-enqueued every
	// pending job from the previous incarnation.
	Replaying bool `json:"replaying,omitempty"`
	// Saturated is true while the bounded job queue is full (new
	// submissions would be shed with 429).
	Saturated bool `json:"saturated,omitempty"`
	// Draining is true once graceful shutdown has begun.
	Draining   bool `json:"draining,omitempty"`
	QueueDepth int  `json:"queue_depth"`
}

// LatencySummary summarizes one job kind's latency in milliseconds.
// P50, P99 and Max are computed over the same sliding window of the
// most recent Window jobs, so the three quantile fields are mutually
// consistent; Count and MaxLifetime cover the whole process lifetime.
type LatencySummary struct {
	// Count is the lifetime number of observations.
	Count int64 `json:"count"`
	// P50 and P99 are quantiles over the sliding window.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// Max is the maximum over the same sliding window as P50/P99.
	Max float64 `json:"max"`
	// MaxLifetime is the maximum since process start.
	MaxLifetime float64 `json:"max_lifetime"`
	// Window is the sliding-window size in observations; fewer than
	// Window lifetime observations mean the window holds them all.
	Window int `json:"window"`
}

// CompiledCacheMetrics reports the server's content-addressed
// compiled-circuit cache: a hit means a request's netlist skipped
// parse+compile+sensitization entirely (built-ins are keyed by name,
// inline netlists by the SHA-256 of their canonical .bench form).
type CompiledCacheMetrics struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// HitRate is Hits / (Hits + Misses), 0 before any lookup. Behind a
	// router it is the cache-affinity signal: consistent-hash routing
	// keeps each shard's rate high, and a sagging rate on one shard
	// means its keys are being re-routed (rebalance or flapping health).
	HitRate float64 `json:"hit_rate"`
	// Entries and Gates describe current occupancy; Budget is the
	// gate-record capacity evictions enforce.
	Entries int   `json:"entries"`
	Gates   int64 `json:"gates"`
	Budget  int64 `json:"budget"`
}

// ArtifactCacheMetrics reports the persistent compiled-artifact store
// backing the compiled-circuit cache when the server runs with
// -artifact-dir: a hit means a restarted process served a netlist from
// an on-disk artifact instead of recompiling it.
type ArtifactCacheMetrics struct {
	// Enabled is true when the server was started with -artifact-dir;
	// all other fields stay zero otherwise.
	Enabled bool `json:"enabled"`
	// Hits counts compiled circuits loaded from disk; Misses counts
	// lookups that fell through to a fresh compile (including every
	// first-ever compile of a netlist).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Saves counts artifacts written after a compile.
	Saves int64 `json:"saves"`
	// Errors counts corrupt/unwritable artifacts; each corrupt file is
	// removed and costs exactly one recompile, so a nonzero value is a
	// disk-health signal, not a correctness problem.
	Errors int64 `json:"errors"`
	// BytesMapped accumulates the byte sizes of every artifact read
	// on a hit over the process lifetime.
	BytesMapped int64 `json:"bytes_mapped"`
}

// MetricsResponse is the GET /metrics body of one serd process.
//
// Every field is process-local. In a multi-node deployment each shard
// reports its own counters and latency quantiles under its own Shard
// name; the router namespaces them per shard on its own /metrics
// instead of mixing samples from different processes into one
// meaningless quantile (see RouterMetricsResponse).
type MetricsResponse struct {
	// Shard is the instance's -shard-name label, empty for a standalone
	// server. It lets an aggregator attribute this snapshot without
	// relying on the URL it happened to scrape.
	Shard   string  `json:"shard,omitempty"`
	UptimeS float64 `json:"uptime_s"`
	// Requests counts HTTP requests per endpoint name.
	Requests map[string]int64 `json:"requests"`
	// Errors counts requests answered with a 4xx/5xx status.
	Errors int64 `json:"errors"`
	// QueueDepth is the number of jobs waiting; JobsRunning the number
	// executing; QueueWorkers the pool size.
	QueueDepth   int `json:"queue_depth"`
	JobsRunning  int `json:"jobs_running"`
	QueueWorkers int `json:"queue_workers"`
	// JobsCanceled counts jobs cancelled before completion (client
	// disconnects included).
	JobsCanceled int64 `json:"jobs_canceled"`
	// JobsRetried counts failed attempts that were re-enqueued;
	// JobsRecovered counts jobs re-enqueued from the journal at
	// startup.
	JobsRetried   int64 `json:"jobs_retried"`
	JobsRecovered int64 `json:"jobs_recovered"`
	// RequestsShed counts submissions bounced with 429 because the
	// queue was full.
	RequestsShed int64 `json:"requests_shed"`
	// JournalErrors counts journal appends that failed after the job
	// was already accepted (submission-time failures reject the
	// request instead).
	JournalErrors int64 `json:"journal_errors"`
	// Characterizations counts cell-class characterizations executed by
	// the shared library (cache misses); LibCacheHits counts jobs that
	// ran entirely against already-characterized tables.
	Characterizations int64 `json:"characterizations"`
	LibCacheHits      int64 `json:"lib_cache_hits"`
	// CompiledCache reports the compiled-circuit cache counters.
	CompiledCache CompiledCacheMetrics `json:"compiled_cache"`
	// ArtifactCache reports the persistent artifact store behind the
	// compiled-circuit cache (all-zero unless -artifact-dir is set).
	ArtifactCache ArtifactCacheMetrics `json:"artifact_cache"`
	// LatencyMS maps job kind ("analyze", "optimize",
	// "susceptibility") to a latency summary over recent jobs.
	LatencyMS map[string]LatencySummary `json:"latency_ms"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's X-Request-ID so a failed call can
	// be matched to server logs and the /debug/requests ring.
	RequestID string `json:"request_id,omitempty"`
}

// DebugRequestEntry is one request in the GET /debug/requests ring.
type DebugRequestEntry struct {
	// RequestID is the request's X-Request-ID.
	RequestID string `json:"request_id,omitempty"`
	// Endpoint is the handler name (same keys as the requests counter).
	Endpoint string `json:"endpoint"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status"`
	// StartMS is the request's arrival time (Unix milliseconds).
	StartMS int64 `json:"start_ms"`
	// DurationMS is the end-to-end handler time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Timings is the per-stage breakdown when the request ran the
	// analysis pipeline synchronously.
	Timings *TimingsReport `json:"timings,omitempty"`
}

// DebugRequestsResponse is the GET /debug/requests body: a bounded
// in-memory ring of recently completed requests, newest first —
// enough to answer "what was that slow call doing" without external
// tooling. ?min_ms=N keeps only requests at least that slow.
type DebugRequestsResponse struct {
	// Window is the ring capacity (older requests are dropped).
	Window int `json:"window"`
	// Requests lists the retained requests, newest first.
	Requests []DebugRequestEntry `json:"requests"`
}

// ShardInfo is one worker's registration and health as the router sees
// it (GET /v1/shards).
type ShardInfo struct {
	// Name is the shard's stable ring identity: consistent-hash
	// placement depends on it, so re-registering the same name (e.g.
	// after a worker restart on a new port) keeps the shard's keyspace.
	Name string `json:"name"`
	URL  string `json:"url"`
	// Up means the last probe (or forward) reached the process; Ready
	// mirrors the shard's own /readyz verdict; Saturated its
	// queue-full flag. New work routes only to up-and-ready shards.
	Up         bool `json:"up"`
	Ready      bool `json:"ready"`
	Saturated  bool `json:"saturated,omitempty"`
	QueueDepth int  `json:"queue_depth"`
	// Error is the last probe/forward failure, empty while healthy.
	Error string `json:"error,omitempty"`
}

// ShardsResponse is the GET /v1/shards body: current ring membership,
// sorted by shard name.
type ShardsResponse struct {
	Shards []ShardInfo `json:"shards"`
}

// ShardRegisterRequest registers (or re-registers) a worker with the
// router (POST /v1/shards). Registering an existing name with a new
// URL replaces the URL and keeps the ring placement.
type ShardRegisterRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// RouteRequest asks the router where a circuit reference would be
// routed (POST /v1/route) without running anything: the same
// circuit/netlist/name triple every analysis endpoint accepts.
type RouteRequest struct {
	Circuit string `json:"circuit,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	Name    string `json:"name,omitempty"`
}

// RouteResponse is the routing decision for one key: the canonical
// routing key, the owning shard, and the deterministic fallback
// sequence (every shard once, in ring-walk order from the owner).
type RouteResponse struct {
	Key      string   `json:"key"`
	Shard    string   `json:"shard"`
	URL      string   `json:"url"`
	Sequence []string `json:"sequence"`
}

// RouterReadyResponse is the router's GET /readyz body: 200 when at
// least one shard can accept new work, 503 otherwise.
type RouterReadyResponse struct {
	Ready bool `json:"ready"`
	// Shards counts registered shards; EligibleShards those currently
	// up, ready and unsaturated; SaturatedShards those alive but
	// shedding.
	Shards          int `json:"shards"`
	EligibleShards  int `json:"eligible_shards"`
	SaturatedShards int `json:"saturated_shards"`
}

// ShardMetrics is one shard's namespaced slot in the router's
// /metrics: either the shard's own MetricsResponse snapshot or the
// error that prevented scraping it.
type ShardMetrics struct {
	Info    ShardInfo        `json:"info"`
	Metrics *MetricsResponse `json:"metrics,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// RouterAggregateMetrics sums the counters that are meaningful across
// processes. Latency quantiles are deliberately absent: a p99 is a
// property of one process's sample window and cannot be averaged, so
// per-shard quantiles stay under their shard's namespace in Shards.
type RouterAggregateMetrics struct {
	// Requests sums per-endpoint request counts across shards; Errors,
	// RequestsShed and Characterizations likewise.
	Requests          map[string]int64 `json:"requests"`
	Errors            int64            `json:"errors"`
	RequestsShed      int64            `json:"requests_shed"`
	Characterizations int64            `json:"characterizations"`
	// CompiledCache sums hits/misses/evictions/entries/gates/budget
	// across shards; its HitRate is recomputed from the summed counts.
	CompiledCache CompiledCacheMetrics `json:"compiled_cache"`
}

// RouterMetricsResponse is the router's GET /metrics body: the
// router's own counters, every shard's namespaced snapshot, and the
// cross-shard aggregate.
type RouterMetricsResponse struct {
	UptimeS float64 `json:"uptime_s"`
	// Requests counts requests arriving at the router, per endpoint.
	Requests map[string]int64 `json:"requests"`
	// Errors counts requests the router answered with 4xx/5xx.
	Errors int64 `json:"errors"`
	// Forwards counts requests forwarded per shard name.
	Forwards map[string]int64 `json:"forwards"`
	// Reroutes counts requests served by a shard other than their ring
	// owner (owner down or saturated); RequestsShed counts submissions
	// bounced with 429 because no shard could take them; JobFanouts
	// counts job lookups that had to ask every shard.
	Reroutes     int64 `json:"reroutes"`
	RequestsShed int64 `json:"requests_shed"`
	JobFanouts   int64 `json:"job_fanouts"`
	// Shards holds each shard's namespaced health + metrics snapshot.
	Shards map[string]ShardMetrics `json:"shards"`
	// Aggregate sums the cross-process-meaningful counters.
	Aggregate RouterAggregateMetrics `json:"aggregate"`
}
