package router

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serd"
)

// postRaw sends body as-is with a fixed X-Request-ID and returns the
// status and the response body.
func postRaw(t *testing.T, url, body, rid string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestShardRouterDecodeParity: a malformed body is refused with 400
// whether it reaches a shard directly or through a router. A typo'd
// field or trailing bytes must never run an analysis behind a router
// that a shard would refuse. Where both answers come from the same
// decode — the shard's, relayed, or the router's batch decode — the
// bodies match too.
func TestShardRouterDecodeParity(t *testing.T) {
	f := newFleet(t, 1, serd.Config{Workers: 1})
	shard := f.shards[0].hs.URL
	rows := []struct {
		name, path, body string
		sameDecode       bool
	}{
		{"unknown field", "/v1/analyze", `{"circuit":"c17","vectorz":5000}`, true},
		{"unknown field in a batch item", "/v1/batch", `{"analyze":[{"circuit":"c17","vectorz":5000}]}`, true},
		{"trailing value", "/v1/analyze", `{"circuit":"c17","vectors":64}{"circuit":"c432"}`, false},
		{"trailing value after a batch", "/v1/batch", `{"analyze":[{"circuit":"c17","vectors":64}]}{"circuit":"c432"}`, true},
		{"truncated", "/v1/analyze", `{"circuit":"c17","vec`, false},
		{"truncated batch", "/v1/batch", `{"analyze":[{"circuit":"c17"`, true},
	}
	for _, r := range rows {
		rid := "parity-" + strings.ReplaceAll(r.name, " ", "-")
		sc, sb := postRaw(t, shard+r.path, r.body, rid)
		rc, rb := postRaw(t, f.front+r.path, r.body, rid)
		if sc != http.StatusBadRequest || rc != http.StatusBadRequest {
			t.Errorf("%s: shard answered %d, router %d; want 400 from both\nshard:  %s\nrouter: %s", r.name, sc, rc, sb, rb)
			continue
		}
		if r.sameDecode && sb != rb {
			t.Errorf("%s: bodies differ\nshard:  %s\nrouter: %s", r.name, sb, rb)
		}
	}
}

// TestRouterAdminBodiesDecodeStrictly: the router's own endpoints,
// POST /v1/shards and POST /v1/route, decode their bodies by the same
// rules as every analysis endpoint: trailing bytes and unknown fields
// get 400, an oversized body 413, and a refused registration leaves
// the ring untouched.
func TestRouterAdminBodiesDecodeStrictly(t *testing.T) {
	const limit = 256
	rt := New(Config{HealthInterval: time.Hour, ProbeTimeout: time.Second, MaxBodyBytes: limit})
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	long := strings.Repeat("x", limit)
	rows := []struct {
		name, path, body string
		want             int
	}{
		{"route trailing bytes", "/v1/route", `{"circuit":"c17"} trailing`, http.StatusBadRequest},
		{"route unknown field", "/v1/route", `{"circuit":"c17","vectorz":5000}`, http.StatusBadRequest},
		{"route oversized", "/v1/route", `{"circuit":"c17","name":"` + long + `"}`, http.StatusRequestEntityTooLarge},
		{"shards trailing bytes", "/v1/shards", `{"name":"s9","url":"http://127.0.0.1:1"} trailing`, http.StatusBadRequest},
		{"shards unknown field", "/v1/shards", `{"name":"s9","url":"http://127.0.0.1:1","weight":2}`, http.StatusBadRequest},
		{"shards oversized", "/v1/shards", `{"name":"s9","url":"http://127.0.0.1:1/` + long + `"}`, http.StatusRequestEntityTooLarge},
		{"route well-formed", "/v1/route", `{"circuit":"c17"}`, http.StatusOK},
	}
	for _, r := range rows {
		if code, body := postRaw(t, front.URL+r.path, r.body, "admin-"+strings.ReplaceAll(r.name, " ", "-")); code != r.want {
			t.Errorf("%s: HTTP %d, want %d\n%s", r.name, code, r.want, body)
		}
	}
	if n := len(rt.shardList()); n != 0 {
		t.Fatalf("refused registrations left %d shards in the ring", n)
	}
}
