// Wire-level tests for the simulation-mode request fields: the
// deprecated lane_words field must be accepted and ignored on every
// flow and request path, the Approx block must round-trip with a sane
// interval, invalid combinations must be rejected, and Approx jobs
// must surface on /metrics (JSON and Prometheus exposition alike).
package serd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/promtext"
	"repro/serclient"
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

// TestAnalyzeLaneWordsWire checks that lane_words is accepted and
// ignored: on analyze, susceptibility and optimize, over the sync,
// async and batch paths, a request carrying it answers exactly what
// the same request without it answers.
func TestAnalyzeLaneWordsWire(t *testing.T) {
	url, cl := rawTestServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		kind, fields string
	}{
		{"analyze", `"circuit":"c432","vectors":800,"seed":3`},
		{"susceptibility", `"circuit":"c432","vectors":800,"seed":3,"top":5`},
		{"optimize", `"circuit":"c17","vectors":500,"seed":2,"iterations":1,"max_basis":4`},
	} {
		status, body := postJSON(t, url+"/v1/"+tc.kind, "{"+tc.fields+"}")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %v", tc.kind, status, body)
		}
		want := canonicalBody(t, body)
		for _, w := range []int{3, 4, 8} {
			fields := fmt.Sprintf(`%s,"lane_words":%d`, tc.fields, w)

			status, body := postJSON(t, url+"/v1/"+tc.kind, "{"+fields+"}")
			if status != http.StatusOK {
				t.Fatalf("%s lane_words=%d: status %d: %v", tc.kind, w, status, body)
			}
			if got := canonicalBody(t, body); got != want {
				t.Fatalf("%s lane_words=%d sync:\n got %s\nwant %s", tc.kind, w, got, want)
			}

			status, body = postJSON(t, url+"/v1/"+tc.kind, "{"+fields+`,"async":true}`)
			if status != http.StatusAccepted {
				t.Fatalf("%s lane_words=%d async: status %d: %v", tc.kind, w, status, body)
			}
			jr, err := cl.WaitJob(context.Background(), body["id"].(string), 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalBody(t, decoded(t, jr)[tc.kind]); got != want {
				t.Fatalf("%s lane_words=%d async:\n got %s\nwant %s", tc.kind, w, got, want)
			}

			status, body = postJSON(t, url+"/v1/batch", fmt.Sprintf(`{%q:[{%s}]}`, tc.kind, fields))
			if status != http.StatusOK {
				t.Fatalf("%s lane_words=%d batch: status %d: %v", tc.kind, w, status, body)
			}
			items := body[tc.kind].([]any)
			if got := canonicalBody(t, items[0].(map[string]any)["result"]); got != want {
				t.Fatalf("%s lane_words=%d batch:\n got %s\nwant %s", tc.kind, w, got, want)
			}
		}
	}
}

func TestAnalyzeApproxWire(t *testing.T) {
	url, cl := rawTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	exact, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c432", Vectors: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Analyze(ctx, serclient.AnalyzeRequest{
		Circuit: "c432", Seed: 3,
		Approx: &serclient.ApproxRequest{RelErr: 0.05, BatchVectors: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := resp.Approx
	if a == nil {
		t.Fatal("approx response missing approx block")
	}
	if a.Batches < 4 || a.VectorsUsed != a.Batches*1000 || a.Confidence != 0.95 {
		t.Fatalf("approx block malformed: %+v", a)
	}
	if !(a.UCILow < resp.U && resp.U < a.UCIHigh) {
		t.Fatalf("interval [%v, %v] does not contain mean %v", a.UCILow, a.UCIHigh, resp.U)
	}
	if exact.U < a.UCILow || exact.U > a.UCIHigh {
		t.Fatalf("exact U %v outside CI [%v, %v]", exact.U, a.UCILow, a.UCIHigh)
	}

	// Approx is combinational-only: the sequential flow must reject it
	// at validation time, not fall back silently.
	_, err = cl.Analyze(ctx, serclient.AnalyzeRequest{
		Circuit: "s27", Cycles: 4, Vectors: 600,
		Approx: &serclient.ApproxRequest{},
	})
	if err == nil {
		t.Fatal("sequential approx request accepted")
	}

	// The non-default mode must be visible to operators: the JSON
	// snapshot and the Prometheus exposition.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.ApproxJobs == 0 {
		t.Fatal("approx_jobs counter not incremented")
	}
	hr, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	fams, err := promtext.Parse(string(doc))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	fam := fams["serd_approx_jobs_total"]
	if fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value == 0 {
		t.Fatal(`family "serd_approx_jobs_total" missing or zero in exposition`)
	}
}
