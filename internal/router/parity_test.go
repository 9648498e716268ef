package router

import (
	"io"
	"net/http"
	"strings"
	"testing"

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
