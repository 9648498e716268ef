package serd

// The golden wire transcript pins every answer serd gives on its flow
// endpoints — analyze, susceptibility and optimize, each sent sync,
// async (then polled), as a batch item and replayed from the journal —
// plus every 400 the request checks and circuit loaders produce. The
// file under testdata is the contract: a change to any recorded byte
// is a wire change. Only what is random is normalized: elapsed_ms is
// zeroed, job IDs are masked, and the async 202 body (whose status
// races the worker) is reduced to its status code. When the file is
// absent the test writes it and fails, so recording is a deliberate,
// reviewed step.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/journal"
	"repro/serclient"
)

const transcriptPath = "testdata/wire_transcript.txt"

// wireRow is one request body sent to one flow endpoint; body never
// sets async (each mode adds it or wraps the body as it needs).
type wireRow struct {
	name, kind, body string
}

// wireConfig holds limits small enough that every check has a cheap
// request that trips it.
func wireConfig() Config {
	return Config{
		Workers:       2,
		MaxGates:      200,
		MaxVectors:    5000,
		MaxCycles:     8,
		MaxSeqFrames:  12,
		MaxBatchItems: 8,
		MaxBodyBytes:  64 << 10,
	}
}

// permutedC17 is c17 with its lines reordered and comments and blank
// lines added: its canonical form, not its text, decides the answer.
const permutedC17 = "# c17, lines permuted\n" +
	"OUTPUT(23)\n23 = NAND(16, 19)\n\nINPUT(3)\n" +
	"19 = NAND(11, 7)\nINPUT(1)\nINPUT(2)\n" +
	"22 = NAND(10, 16)\nINPUT(6)\n16 = NAND(2, 11)\n" +
	"OUTPUT(22)\n10 = NAND(1, 3)\nINPUT(7)\n11 = NAND(3, 6)\n"

// permutedSeq declares qb before qa; the canonical DFF order is
// [qa qb], so init_state must be remapped (see
// TestInlineSequentialInitStateCanonicalRemap).
const permutedSeq = "INPUT(a)\nOUTPUT(y1)\n" +
	"qb = DFF(nb)\nqa = DFF(ba)\n" +
	"ba = BUFF(a)\nnb = NOT(ba)\n" +
	"y1 = AND(qa, qb)\n"

// canonicalText returns a built-in benchmark's canonical .bench text,
// for inline requests: c432's exceeds the journal's spill threshold,
// c499's exceeds wireConfig's gate limit.
func canonicalText(t *testing.T, name string) string {
	t.Helper()
	c, err := ser.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.CanonicalBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// successRows are the well-formed requests: every endpoint over a
// built-in, an inline netlist with permuted lines, and (analysis only)
// a sequential built-in and the inline sequential netlist whose flop
// order canonicalization permutes. Analyze also runs an inline netlist
// large enough to spill to a journal blob.
func successRows(t *testing.T) []wireRow {
	spilled := canonicalText(t, "c432")
	type circuit struct {
		name      string
		circuit   string
		netlist   string
		label     string
		vectors   int
		seed      uint64
		top       int
		cycles    int
		initState []bool
	}
	comb := []circuit{
		{name: "builtin", circuit: "c432", vectors: 300, seed: 3, top: 8},
		{name: "inline", netlist: permutedC17, label: "perm17", vectors: 400, seed: 5},
	}
	seqs := []circuit{
		{name: "seq-builtin", circuit: "s27", vectors: 300, seed: 7, cycles: 4, initState: []bool{true, false, true}},
		{name: "seq-inline", netlist: permutedSeq, label: "perm", vectors: 1000, seed: 5, cycles: 3, initState: []bool{true, false}},
	}
	var rows []wireRow
	for _, c := range append(append(comb, seqs...), circuit{name: "inline-spilled", netlist: spilled, label: "c432x", vectors: 300, seed: 3, top: 8}) {
		rows = append(rows, wireRow{"analyze/" + c.name, "analyze", mustJSON(t, serclient.AnalyzeRequest{
			Circuit: c.circuit, Netlist: c.netlist, Name: c.label, Vectors: c.vectors, Seed: c.seed,
			Top: c.top, Cycles: c.cycles, InitState: c.initState,
		})})
	}
	for _, c := range append(comb, seqs...) {
		rows = append(rows, wireRow{"susceptibility/" + c.name, "susceptibility", mustJSON(t, serclient.SusceptibilityRequest{
			Circuit: c.circuit, Netlist: c.netlist, Name: c.label, Vectors: c.vectors, Seed: c.seed,
			Top: c.top, Cycles: c.cycles, InitState: c.initState,
		})})
	}
	rows = append(rows,
		wireRow{"optimize/builtin", "optimize", mustJSON(t, serclient.OptimizeRequest{
			Circuit: "c432", Iterations: 3, MaxBasis: 8, Vectors: 400, Seed: 3,
		})},
		wireRow{"optimize/inline", "optimize", mustJSON(t, serclient.OptimizeRequest{
			Netlist: permutedC17, Name: "perm17", Iterations: 2, MaxBasis: 4, Vectors: 300, Seed: 2, Method: "anneal",
		})},
	)
	return rows
}

// validationRows are requests every path must refuse: one row per 400
// the decode, the request checks and the circuit loaders produce.
func validationRows(t *testing.T) []wireRow {
	overGates := mustJSON(t, canonicalText(t, "c499"))
	both := `{"circuit":"c17","netlist":"INPUT(a)\nOUTPUT(a)\n"}`
	shared := []wireRow{
		{"vectors-over-cap", "", `{"circuit":"c17","vectors":5001}`},
		{"vectors-negative", "", `{"circuit":"c17","vectors":-1}`},
		{"circuit-and-netlist", "", both},
		{"no-circuit", "", `{"vectors":100}`},
		{"unknown-benchmark", "", `{"circuit":"c9999"}`},
		{"bad-netlist", "", `{"netlist":"y = FOO(a)\n"}`},
		{"builtin-over-gates", "", `{"circuit":"c499"}`},
		{"inline-over-gates", "", `{"netlist":` + overGates + `}`},
		{"check-before-load", "", `{"circuit":"c9999","vectors":-1}`},
		{"unknown-field", "", `{"circuit":"c17","vectorz":5}`},
		{"wrong-type", "", `{"circuit":"c17","vectors":"many"}`},
	}
	analysis := []wireRow{
		{"cycles-negative", "", `{"circuit":"s27","cycles":-1}`},
		{"cycles-over-cap", "", `{"circuit":"s27","cycles":9}`},
		{"init-state-without-cycles", "", `{"circuit":"c17","init_state":[true]}`},
		{"init-state-length", "", `{"circuit":"s27","cycles":4,"init_state":[true]}`},
		{"cycles-x-flops", "", `{"circuit":"s27","cycles":5}`},
		{"flops-without-cycles", "", `{"circuit":"s27","vectors":200}`},
	}
	perKind := map[string][]wireRow{
		"analyze":        analysis,
		"susceptibility": append(append([]wireRow{}, analysis...), wireRow{"top-negative", "", `{"circuit":"c17","top":-1}`}),
		"optimize": {
			{"flops", "", `{"circuit":"s27","vectors":200}`},
			{"unknown-method", "", `{"circuit":"c17","method":"newton"}`},
			{"iterations-negative", "", `{"circuit":"c17","iterations":-1}`},
			{"max-basis-negative", "", `{"circuit":"c17","max_basis":-1}`},
			{"method-before-iterations", "", `{"circuit":"c17","method":"newton","iterations":-1}`},
		},
	}
	var rows []wireRow
	for _, kind := range []string{"analyze", "susceptibility", "optimize"} {
		for _, r := range append(append([]wireRow{}, shared...), perKind[kind]...) {
			rows = append(rows, wireRow{kind + "/" + r.name, kind, r.body})
		}
	}
	return rows
}

// withAsync adds "async": true to a JSON object body.
func withAsync(body string) string {
	return strings.TrimSuffix(body, "}") + `,"async":true}`
}

func batchOf(kind, items string) string {
	return `{"` + kind + `":[` + items + `]}`
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ms":[-+.eE0-9]+`)
	jobIDValue   = regexp.MustCompile(`job-[0-9a-f]{24}`)
)

// normalizeWire masks the only random bytes of a response body.
func normalizeWire(b []byte) string {
	b = elapsedField.ReplaceAll(b, []byte(`"elapsed_ms":0`))
	b = jobIDValue.ReplaceAll(b, []byte(`job-*`))
	return strings.TrimSuffix(string(b), "\n")
}

// shortBody keeps a request body readable in the transcript: large
// ones are recorded by size and digest.
func shortBody(b string) string {
	if len(b) <= 512 {
		return b
	}
	return fmt.Sprintf("<%d bytes, sha256 %x>", len(b), sha256.Sum256([]byte(b)))
}

// wireClient sends raw requests with a fixed X-Request-ID.
type wireClient struct {
	t   *testing.T
	url string
}

func (c wireClient) do(method, path, body, rid string) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// submit posts an async body and returns the accepted job's ID.
func (c wireClient) submit(kind, body, rid string) (int, string) {
	c.t.Helper()
	code, out := c.do(http.MethodPost, "/v1/"+kind, withAsync(body), rid)
	var jr serclient.JobResponse
	if code == http.StatusAccepted {
		if err := json.Unmarshal(out, &jr); err != nil {
			c.t.Fatalf("%s: decode 202 body: %v", rid, err)
		}
	}
	return code, jr.ID
}

// poll waits for a job to reach a terminal state and returns the
// final poll.
func (c wireClient) poll(id string) (int, []byte) {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, out := c.do(http.MethodGet, "/v1/jobs/"+id, "", "")
		var jr serclient.JobResponse
		if code != http.StatusOK || json.Unmarshal(out, &jr) != nil || isTerminal(jr.Status) {
			return code, out
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %s after 60s", id, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// journaled renders the submitted record of one job as the journal
// holds it.
func journaled(jnl *journal.Journal, id string) string {
	js := jnl.Lookup(id)
	if js == nil {
		return "journal: <none>"
	}
	netlist := "-"
	switch {
	case js.NetlistRef != "":
		netlist = "blob " + js.NetlistRef
	case js.Netlist != "":
		netlist = fmt.Sprintf("<%d bytes, sha256 %x>", len(js.Netlist), sha256.Sum256([]byte(js.Netlist)))
	}
	return fmt.Sprintf("journal: kind=%s content_hash=%q netlist=%s\n%s", js.Kind, js.ContentHash, netlist, js.Request)
}

func jobCount(srv *Server) int {
	srv.jobs.mu.Lock()
	defer srv.jobs.mu.Unlock()
	return len(srv.jobs.order)
}

// wireTranscript accumulates named entries in recording order.
type wireTranscript struct {
	names []string
	text  map[string]string
}

func (tr *wireTranscript) add(t *testing.T, name string, lines ...string) {
	t.Helper()
	if tr.text == nil {
		tr.text = map[string]string{}
	}
	if _, dup := tr.text[name]; dup {
		t.Fatalf("duplicate transcript entry %q", name)
	}
	tr.names = append(tr.names, name)
	tr.text[name] = strings.Join(lines, "\n")
}

func (tr *wireTranscript) render() string {
	var b strings.Builder
	for _, n := range tr.names {
		fmt.Fprintf(&b, "### %s\n%s\n", n, tr.text[n])
	}
	return b.String()
}

// parseTranscript splits a recorded transcript into its entries.
func parseTranscript(raw string) *wireTranscript {
	tr := &wireTranscript{text: map[string]string{}}
	for _, chunk := range strings.Split("\n"+raw, "\n### ")[1:] {
		name, body, _ := strings.Cut(chunk, "\n")
		tr.names = append(tr.names, name)
		tr.text[name] = strings.TrimSuffix(body, "\n")
	}
	return tr
}

// compare reports every entry that differs from the recorded one.
func (tr *wireTranscript) compare(t *testing.T, want *wireTranscript) {
	t.Helper()
	for _, n := range want.names {
		if _, ok := tr.text[n]; !ok {
			t.Errorf("%s: recorded entry not produced", n)
		}
	}
	for _, n := range tr.names {
		w, ok := want.text[n]
		switch {
		case !ok:
			t.Errorf("%s: entry not in the recorded transcript", n)
		case w != tr.text[n]:
			t.Errorf("%s: wire answer changed\n--- recorded\n%s\n--- now\n%s", n, w, tr.text[n])
		}
	}
	if len(tr.names) == len(want.names) {
		for i := range tr.names {
			if tr.names[i] != want.names[i] {
				t.Errorf("entry %d is %s, recorded %s", i, tr.names[i], want.names[i])
				break
			}
		}
	}
}

// TestWireTranscript replays the recorded wire transcript and requires
// every answer to match it byte for byte.
func TestWireTranscript(t *testing.T) {
	ok := successRows(t)
	bad := validationRows(t)
	tr := &wireTranscript{}

	// Sync, async and batch on one journaled server.
	jnl, err := journal.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	cfg := wireConfig()
	cfg.Journal = jnl
	_, srv, _, url, done := newDurableServer(t, cfg)
	defer done()
	cl := wireClient{t, url}

	for _, r := range ok {
		path := "/v1/" + r.kind
		code, out := cl.do(http.MethodPost, path, r.body, "wt-"+r.name+"/sync")
		tr.add(t, r.name+"/sync", "POST "+path, shortBody(r.body), fmt.Sprint(code), normalizeWire(out))

		code, id := cl.submit(r.kind, r.body, "wt-"+r.name+"/async")
		if id == "" {
			t.Fatalf("%s/async: submission answered %d", r.name, code)
		}
		pcode, out := cl.poll(id)
		tr.add(t, r.name+"/async", "POST "+path+" (async)", fmt.Sprint(code), journaled(jnl, id),
			"GET /v1/jobs/{id}", fmt.Sprint(pcode), normalizeWire(out))

		body := batchOf(r.kind, r.body)
		code, out = cl.do(http.MethodPost, "/v1/batch", body, "wt-"+r.name+"/batch")
		tr.add(t, r.name+"/batch", "POST /v1/batch", shortBody(body), fmt.Sprint(code), normalizeWire(out))
	}

	for _, r := range bad {
		path := "/v1/" + r.kind
		code, out := cl.do(http.MethodPost, path, r.body, "wt-"+r.name+"/sync")
		tr.add(t, r.name+"/sync", "POST "+path, shortBody(r.body), fmt.Sprint(code), normalizeWire(out))

		before := jobCount(srv)
		body := withAsync(r.body)
		code, out = cl.do(http.MethodPost, path, body, "wt-"+r.name+"/async")
		tr.add(t, r.name+"/async", "POST "+path, shortBody(body), fmt.Sprint(code), normalizeWire(out),
			fmt.Sprintf("jobs created: %d", jobCount(srv)-before))

		body = batchOf(r.kind, r.body)
		code, out = cl.do(http.MethodPost, "/v1/batch", body, "wt-"+r.name+"/batch")
		tr.add(t, r.name+"/batch", "POST /v1/batch", shortBody(body), fmt.Sprint(code), normalizeWire(out))
	}

	// Batch-only answers: per-item async refusals (the async check
	// precedes every other item check), whole-batch 400s, and one mixed
	// batch pinning item order and the failed count.
	c17 := `{"circuit":"c17","vectors":200}`
	var nine []string
	for i := 0; i < 9; i++ {
		nine = append(nine, c17)
	}
	batchOnly := []struct{ name, body string }{
		{"analyze/async-in-batch", batchOf("analyze", withAsync(c17))},
		{"susceptibility/async-in-batch", batchOf("susceptibility", withAsync(c17))},
		{"optimize/async-in-batch", batchOf("optimize", withAsync(c17))},
		{"analyze/async-and-invalid-in-batch", batchOf("analyze", `{"circuit":"c9999","vectors":-1,"async":true}`)},
		{"susceptibility/async-and-invalid-in-batch", batchOf("susceptibility", `{"circuit":"c17","top":-1,"async":true}`)},
		{"optimize/async-and-invalid-in-batch", batchOf("optimize", `{"circuit":"c17","method":"newton","async":true}`)},
		{"batch/empty", `{}`},
		{"batch/empty-sections", `{"analyze":[],"optimize":[],"susceptibility":[]}`},
		{"batch/over-item-cap", `{"analyze":[` + strings.Join(nine[:3], ",") + `],"optimize":[` + strings.Join(nine[3:6], ",") +
			`],"susceptibility":[` + strings.Join(nine[6:], ",") + `]}`},
		{"batch/unknown-section", `{"analyse":[` + c17 + `]}`},
		{"batch/not-json", `nope`},
		{"batch/mixed", `{"analyze":[` + c17 + `,{"circuit":"s27","cycles":4,"vectors":200,"seed":1},{"circuit":"c9999"}],` +
			`"optimize":[{"circuit":"s27"},{"circuit":"c17","iterations":1,"max_basis":2,"vectors":200}],` +
			`"susceptibility":[{"circuit":"c17","top":3,"vectors":200,"async":true},{"circuit":"c17","top":3,"vectors":200}]}`},
	}
	for _, b := range batchOnly {
		code, out := cl.do(http.MethodPost, "/v1/batch", b.body, "wt-"+b.name)
		tr.add(t, b.name, "POST /v1/batch", shortBody(b.body), fmt.Sprint(code), normalizeWire(out))
	}
	huge := `{"circuit":"c17","name":"` + strings.Repeat("x", 70<<10) + `"}`
	for _, path := range []string{"/v1/analyze", "/v1/susceptibility", "/v1/optimize"} {
		code, out := cl.do(http.MethodPost, path, huge, "wt-body-too-large")
		tr.add(t, "body-too-large"+path, "POST "+path, shortBody(huge), fmt.Sprint(code), normalizeWire(out))
	}
	body := batchOf("analyze", huge)
	code, out := cl.do(http.MethodPost, "/v1/batch", body, "wt-body-too-large")
	tr.add(t, "body-too-large/v1/batch", "POST /v1/batch", shortBody(body), fmt.Sprint(code), normalizeWire(out))

	// Journal replay: submit every async row to a journaled server whose
	// only worker is wedged, abandon it as a crash would, restart on the
	// same journal and poll each job.
	dir := t.TempDir()
	jnl1, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := wireConfig()
	cfg1.Workers, cfg1.Journal = 1, jnl1
	_, srv1, _, url1, _ := newDurableServer(t, cfg1)
	release := wedgeWorker(t, srv1)
	t.Cleanup(func() {
		release()
		srv1.Close()
	})
	cl1 := wireClient{t, url1}
	ids := make([]string, len(ok))
	codes := make([]int, len(ok))
	for i, r := range ok {
		codes[i], ids[i] = cl1.submit(r.kind, r.body, "wt-"+r.name+"/replay")
		if ids[i] == "" {
			t.Fatalf("%s/replay: submission answered %d", r.name, codes[i])
		}
	}
	submitted := make([]string, len(ok))
	for i, id := range ids {
		submitted[i] = journaled(jnl1, id)
	}
	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}
	jnl2, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := wireConfig()
	cfg2.Journal = jnl2
	_, _, _, url2, done2 := newDurableServer(t, cfg2)
	cl2 := wireClient{t, url2}
	for i, r := range ok {
		pcode, out := cl2.poll(ids[i])
		tr.add(t, r.name+"/replay", "POST /v1/"+r.kind+" (async, then restart)", fmt.Sprint(codes[i]), submitted[i],
			"GET /v1/jobs/{id}", fmt.Sprint(pcode), normalizeWire(out))
	}
	done2()
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart once more with room for one job in memory: every other
	// result is served from the journal alone.
	jnl3, err := journal.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl3.Close()
	cfg3 := wireConfig()
	cfg3.Journal, cfg3.KeepJobs = jnl3, 1
	_, _, _, url3, done3 := newDurableServer(t, cfg3)
	defer done3()
	cl3 := wireClient{t, url3}
	for i, r := range ok {
		pcode, out := cl3.do(http.MethodGet, "/v1/jobs/"+ids[i], "", "")
		tr.add(t, r.name+"/replay-evicted", "GET /v1/jobs/{id} (restarted, one job kept in memory)",
			fmt.Sprint(pcode), normalizeWire(out))
	}

	got := tr.render()
	raw, err := os.ReadFile(transcriptPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(transcriptPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transcriptPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d entries to %s; review the file and rerun", len(tr.names), transcriptPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, []byte(got)) {
		tr.compare(t, parseTranscript(string(raw)))
		if !t.Failed() {
			t.Errorf("%s differs from the produced transcript in layout only; rerun after deleting it to see", transcriptPath)
		}
	}
}
