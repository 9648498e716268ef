// Wire-level tests for the deprecated simulation-mode request fields:
// lane_words and the approx block must be accepted and ignored on
// every flow and request path that ever took them.
package serd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// postJSON posts a raw JSON body and returns the status and the
// decoded response.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

// canonicalBody re-encodes a decoded response body with elapsed_ms
// zeroed, so two answers to the same request compare byte for byte.
func canonicalBody(t *testing.T, v any) string {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("response body is %T, want an object", v)
	}
	m["elapsed_ms"] = 0
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// decoded re-encodes a typed wire value as a generic JSON object, the
// form canonicalBody compares.
func decoded(t *testing.T, v any) map[string]any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAnalyzeLaneWordsWire checks that the deprecated fields are
// accepted and ignored: lane_words on analyze, susceptibility and
// optimize, and the approx block on analyze, over the sync, async and
// batch paths. A request carrying one answers exactly what the same
// request without it answers — including approx blocks that used to be
// refused (negative fields, an over-cap batch size, a sequential
// analysis).
func TestAnalyzeLaneWordsWire(t *testing.T) {
	url, cl := rawTestServer(t, Config{Workers: 2, MaxVectors: 20000})
	lanes := []string{`"lane_words":3`, `"lane_words":4`, `"lane_words":8`}
	for _, tc := range []struct {
		kind, fields string
		deprecated   []string
	}{
		{"analyze", `"circuit":"c432","vectors":800,"seed":3`, []string{
			`"lane_words":3`, `"lane_words":4`, `"lane_words":8`,
			`"approx":{"rel_err":0.05,"batch_vectors":1000}`,
			`"approx":{"rel_err":-1,"confidence":-0.5,"batch_vectors":-3,"max_batches":-2}`,
			`"approx":{"batch_vectors":50000}`,
		}},
		{"analyze", `"circuit":"s27","vectors":600,"seed":3,"cycles":4`, []string{`"approx":{}`}},
		{"susceptibility", `"circuit":"c432","vectors":800,"seed":3,"top":5`, lanes},
		{"optimize", `"circuit":"c17","vectors":500,"seed":2,"iterations":1,"max_basis":4`, lanes},
	} {
		status, body := postJSON(t, url+"/v1/"+tc.kind, "{"+tc.fields+"}")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %v", tc.kind, status, body)
		}
		want := canonicalBody(t, body)
		for _, dep := range tc.deprecated {
			fields := tc.fields + "," + dep

			status, body := postJSON(t, url+"/v1/"+tc.kind, "{"+fields+"}")
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d: %v", tc.kind, dep, status, body)
			}
			if got := canonicalBody(t, body); got != want {
				t.Fatalf("%s %s sync:\n got %s\nwant %s", tc.kind, dep, got, want)
			}

			status, body = postJSON(t, url+"/v1/"+tc.kind, "{"+fields+`,"async":true}`)
			if status != http.StatusAccepted {
				t.Fatalf("%s %s async: status %d: %v", tc.kind, dep, status, body)
			}
			jr, err := cl.WaitJob(context.Background(), body["id"].(string), 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalBody(t, decoded(t, jr)[tc.kind]); got != want {
				t.Fatalf("%s %s async:\n got %s\nwant %s", tc.kind, dep, got, want)
			}

			status, body = postJSON(t, url+"/v1/batch", fmt.Sprintf(`{%q:[{%s}]}`, tc.kind, fields))
			if status != http.StatusOK {
				t.Fatalf("%s %s batch: status %d: %v", tc.kind, dep, status, body)
			}
			items := body[tc.kind].([]any)
			if got := canonicalBody(t, items[0].(map[string]any)["result"]); got != want {
				t.Fatalf("%s %s batch:\n got %s\nwant %s", tc.kind, dep, got, want)
			}
		}
	}
}
