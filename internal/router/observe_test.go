// Router observability tests: the Prometheus re-exposition must parse,
// carry every shard's series under its registered name, and keep
// request IDs flowing router → shard → response.
package router

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/promtext"
	"repro/internal/serd"
	"repro/serclient"
)

// TestRouterPrometheusExposition scrapes the router's
// /metrics?format=prometheus after routed work and validates it with
// the in-repo exposition parser: the router's own counters, every
// shard's re-labeled series, and a scrape-up marker per shard.
func TestRouterPrometheusExposition(t *testing.T) {
	f := newFleet(t, 2, serd.Config{Workers: 2})
	ctx := context.Background()
	if _, err := f.client.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c17", Vectors: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(f.front + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text exposition", ct)
	}
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(string(doc))
	if err != nil {
		t.Fatalf("router exposition does not parse: %v\n%s", err, doc)
	}

	for _, want := range []string{
		"serd_router_requests_total", "serd_router_shards",
		"serd_shard_scrape_up", "serd_uptime_seconds", "go_goroutines",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from router exposition", want)
		}
	}

	// Every registered shard was scraped and re-exposed under its
	// registered name — interleaved families must still have exactly
	// one TYPE header each (Parse enforces that).
	up := map[string]float64{}
	for _, s := range fams["serd_shard_scrape_up"].Samples {
		up[s.Labels["shard"]] = s.Value
	}
	shards := map[string]bool{}
	for _, s := range fams["serd_uptime_seconds"].Samples {
		shards[s.Labels["shard"]] = true
	}
	for _, sh := range f.shards {
		if up[sh.name] != 1 {
			t.Errorf("shard %s scrape_up = %v, want 1", sh.name, up[sh.name])
		}
		if !shards[sh.name] {
			t.Errorf("shard %s has no re-exposed serd_uptime_seconds series", sh.name)
		}
	}
}

// TestRouterRequestIDFlow: an explicit X-Request-ID survives the hop
// through the router to the shard and back, for single requests and
// for every sub-batch of a batch fan-out; without one the router
// mints an ID at the edge.
func TestRouterRequestIDFlow(t *testing.T) {
	f := newFleet(t, 2, serd.Config{Workers: 1})
	ctx := context.Background()

	for _, tc := range []struct{ endpoint, id, body string }{
		{"analyze", "req-via-router", `{"circuit":"c17","vectors":500,"seed":1}`},
		// Items keyed to different circuits spread over both shards.
		{"batch", "req-batch-via-router", `{"analyze":[` +
			`{"circuit":"c17","vectors":500,"seed":1},{"circuit":"c432","vectors":500,"seed":1},` +
			`{"circuit":"c499","vectors":500,"seed":1},{"circuit":"c880","vectors":500,"seed":1}]}`},
	} {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front+"/v1/"+tc.endpoint,
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed %s: HTTP %d", tc.endpoint, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Request-ID"); got != tc.id {
			t.Fatalf("routed %s response X-Request-ID = %q, want %s", tc.endpoint, got, tc.id)
		}

		// Every shard that served the request recorded it under the
		// same ID in its debug ring, and none under another.
		found := 0
		for _, sh := range f.shards {
			dr, err := sh.cl.DebugRequests(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range dr.Requests {
				if e.Endpoint != tc.endpoint {
					continue
				}
				if e.RequestID != tc.id {
					t.Fatalf("shard %s recorded a routed %s under %q, want %s", sh.name, tc.endpoint, e.RequestID, tc.id)
				}
				found++
			}
		}
		if found == 0 {
			t.Fatalf("no shard debug ring recorded the forwarded %s request ID", tc.endpoint)
		}
	}

	// Router-minted ID when the caller sends none.
	req2, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front+"/v1/analyze",
		strings.NewReader(`{"circuit":"c17","vectors":500,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Fatalf("router-minted X-Request-ID = %q, want req- prefix", got)
	}
}
