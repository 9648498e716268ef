// Request-level observability: the shared request shell (request IDs,
// status capture, the recent-requests debug ring, leveled request
// logs), the per-request timings block, and the Prometheus rendering
// of GET /metrics. Analysis code never imports any of this — it only
// reports spans through internal/trace.
package serd

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/promtext"
	"repro/internal/trace"
	"repro/serclient"
)

// debugRingSize bounds the /debug/requests ring of recently completed
// requests.
const debugRingSize = 128

// debugRing is a fixed-capacity ring of completed-request records,
// overwritten oldest-first.
type debugRing struct {
	mu      sync.Mutex
	entries [debugRingSize]serclient.DebugRequestEntry
	n, pos  int
}

func (d *debugRing) add(e serclient.DebugRequestEntry) {
	d.mu.Lock()
	d.entries[d.pos] = e
	d.pos = (d.pos + 1) % debugRingSize
	if d.n < debugRingSize {
		d.n++
	}
	d.mu.Unlock()
}

// snapshot returns the retained entries newest first, keeping only
// those that took at least minMS milliseconds.
func (d *debugRing) snapshot(minMS float64) []serclient.DebugRequestEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]serclient.DebugRequestEntry, 0, d.n)
	for i := 1; i <= d.n; i++ {
		e := d.entries[(d.pos-i+debugRingSize)%debugRingSize]
		if e.DurationMS >= minMS {
			out = append(out, e)
		}
	}
	return out
}

// statusWriter records the status code written through it so the
// request shell can log and ring-buffer the outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) statusCode() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// timingsReport reduces a request's spans to the wire block: the flat
// stage list in completion order, the unattributed residual, and the
// end-to-end total, so stages + other always sum to total.
func timingsReport(spans []trace.Span, totalMS float64) *serclient.TimingsReport {
	tr := &serclient.TimingsReport{
		TotalMS: totalMS,
		Stages:  make([]serclient.StageTiming, 0, len(spans)),
	}
	var sum float64
	for _, sp := range spans {
		ms := float64(sp.Duration) / float64(time.Millisecond)
		tr.Stages = append(tr.Stages, serclient.StageTiming{Stage: sp.Name, MS: ms})
		sum += ms
	}
	tr.OtherMS = max(totalMS-sum, 0)
	return tr
}

// counted wraps a handler with the shell every endpoint shares: the
// per-endpoint request counter, request-ID generation and propagation
// (header in, context through, header out), a span recorder feeding
// the debug ring, and a leveled request log line keyed by request ID.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	// Probe and scrape endpoints stay out of the debug ring so it
	// retains analysis traffic, not health-check noise.
	tracked := name != "healthz" && name != "readyz" && name != "metrics" && name != "debug"
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.countRequest(name)
		rid := r.Header.Get(trace.HeaderRequestID)
		if rid == "" {
			rid = trace.NewRequestID()
		}
		rec := &trace.Recorder{}
		ctx := trace.WithRecorder(trace.WithRequestID(r.Context(), rid), rec)
		if rid != "" {
			w.Header().Set(trace.HeaderRequestID, rid)
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r.WithContext(ctx))
		status := sw.statusCode()
		durMS := float64(time.Since(t0)) / float64(time.Millisecond)
		if tracked {
			e := serclient.DebugRequestEntry{
				RequestID:  rid,
				Endpoint:   name,
				Status:     status,
				StartMS:    t0.UnixMilli(),
				DurationMS: durMS,
			}
			if spans := rec.Spans(); len(spans) > 0 {
				e.Timings = timingsReport(spans, durMS)
			}
			s.dbg.add(e)
		}
		lvl := slog.LevelDebug
		if status >= http.StatusInternalServerError {
			lvl = slog.LevelWarn
		}
		s.log.Log(ctx, lvl, "request",
			"endpoint", name, "status", status,
			"request_id", rid, "duration_ms", durMS)
	}
}

// handleDebugRequests serves the recent-requests ring, newest first;
// ?min_ms=N keeps only requests at least that slow.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	var minMS float64
	if v := r.URL.Query().Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			s.writeError(w, http.StatusBadRequest, "bad min_ms %q", v)
			return
		}
		minMS = f
	}
	s.writeJSON(w, http.StatusOK, serclient.DebugRequestsResponse{
		Window:   debugRingSize,
		Requests: s.dbg.snapshot(minMS),
	})
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus renders the metrics snapshot plus the process-global
// stage histograms, trace counters and Go runtime stats in the
// Prometheus text exposition format.
func (s *Server) writePrometheus(w http.ResponseWriter, m *serclient.MetricsResponse) {
	pw := promtext.NewWriter()
	promtext.WriteShardMetrics(pw, m)
	promtext.WriteStageHistograms(pw, m.Shard, trace.Histograms())
	promtext.WriteTraceCounters(pw, m.Shard, trace.Counters())
	promtext.WriteRuntime(pw, m.Shard)
	w.Header().Set("Content-Type", promContentType)
	_, _ = w.Write(pw.Bytes())
}
