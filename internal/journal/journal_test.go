package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func open(t *testing.T, dir string, keep int) *Journal {
	t.Helper()
	j, err := Open(dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 0)

	req := json.RawMessage(`{"circuit":"c17","vectors":1000}`)
	res := json.RawMessage(`{"u":0.125}`)
	deadline := time.Now().Add(time.Hour).Truncate(time.Millisecond)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(Record{Job: "job-aa", Event: EventSubmitted, Kind: "analyze",
		Request: req, IdempotencyKey: "k1", ContentHash: "name:c17", DeadlineMS: deadline.UnixMilli()}))
	must(j.Append(Record{Job: "job-aa", Event: EventStarted}))
	must(j.Append(Record{Job: "job-aa", Event: EventDone, Result: res}))
	must(j.Append(Record{Job: "job-bb", Event: EventSubmitted, Kind: "optimize", Request: req}))
	must(j.Append(Record{Job: "job-bb", Event: EventStarted}))
	must(j.Append(Record{Job: "job-bb", Event: EventAttemptFailed, Attempt: 1, Error: "boom"}))
	must(j.Append(Record{Job: "job-cc", Event: EventSubmitted, Kind: "analyze", Request: req}))
	j.Close()

	j2 := open(t, dir, 0)
	jobs := j2.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	aa := j2.Lookup("job-aa")
	if aa.Status != "done" || string(aa.Result) != string(res) || aa.Kind != "analyze" {
		t.Fatalf("job-aa replayed wrong: %+v", aa)
	}
	if aa.IdempotencyKey != "k1" || !aa.Deadline.Equal(deadline) {
		t.Fatalf("job-aa metadata lost: key=%q deadline=%v want %v", aa.IdempotencyKey, aa.Deadline, deadline)
	}
	bb := j2.Lookup("job-bb")
	if bb.Status != "queued" || bb.Attempts != 1 || bb.Error != "boom" {
		t.Fatalf("job-bb must replay as queued with 1 failed attempt, got %+v", bb)
	}
	pending := j2.Pending()
	if len(pending) != 2 || pending[0].ID != "job-bb" || pending[1].ID != "job-cc" {
		ids := []string{}
		for _, p := range pending {
			ids = append(ids, p.ID)
		}
		t.Fatalf("pending = %v, want [job-bb job-cc] in submission order", ids)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 0)
	if err := j.Append(Record{Job: "job-aa", Event: EventSubmitted, Kind: "analyze"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a partial JSON line at the tail.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"job":"job-bb","event":"subm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := open(t, dir, 0)
	if got := len(j2.Jobs()); got != 1 {
		t.Fatalf("replayed %d jobs, want 1 (torn line dropped)", got)
	}
	// The tail must be gone so new appends produce a clean log.
	if err := j2.Append(Record{Job: "job-cc", Event: EventSubmitted, Kind: "analyze"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := open(t, dir, 0)
	if got := len(j3.Jobs()); got != 2 {
		t.Fatalf("post-truncation log replayed %d jobs, want 2", got)
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 0)
	if err := j.Append(Record{Job: "job-aa", Event: EventSubmitted, Kind: "analyze"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := "GARBAGE NOT JSON\n" + string(data)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open on mid-log corruption: %v, want corrupt-record error", err)
	}
}

func TestCompactionPreservesStateAndPrunes(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 4) // retain at most 4 terminal jobs

	// 40 finished jobs (3 records each) plus one pending.
	for i := 0; i < 40; i++ {
		id := "job-" + strings.Repeat("0", 3) + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if err := j.Append(Record{Job: id, Event: EventSubmitted, Kind: "analyze"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Job: id, Event: EventStarted}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Job: id, Event: EventDone, Result: json.RawMessage(`{"u":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(Record{Job: "job-live", Event: EventSubmitted, Kind: "analyze",
		Request: json.RawMessage(`{"circuit":"c17"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if recs := j.Records(); recs > 2*(4+1) {
		t.Fatalf("compacted log holds %d records, want <= %d", recs, 2*(4+1))
	}
	if got := len(j.Pending()); got != 1 || j.Pending()[0].ID != "job-live" {
		t.Fatalf("pending after compaction = %d, want the live job", got)
	}
	j.Close()

	// The compacted log must replay to the same state.
	j2 := open(t, dir, 4)
	if st := j2.Lookup("job-live"); st == nil || st.Status != "queued" || string(st.Request) != `{"circuit":"c17"}` {
		t.Fatalf("live job lost by compaction: %+v", st)
	}
	terminal := 0
	for _, st := range j2.Jobs() {
		if st.Terminal() {
			terminal++
			if st.Status != "done" || string(st.Result) != `{"u":1}` {
				t.Fatalf("retained terminal job lost its result: %+v", st)
			}
		}
	}
	if terminal != 4 {
		t.Fatalf("compaction retained %d terminal jobs, want 4", terminal)
	}
}

// TestTerminalAttemptsSurviveRestart: the attempt count a terminal
// record carries replays after a restart and survives compaction, for
// done, failed and canceled jobs alike.
func TestTerminalAttemptsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 0)
	terminal := map[string]Record{
		"job-done":     {Event: EventDone, Result: json.RawMessage(`{"u":1}`)},
		"job-failed":   {Event: EventFailed, Error: "boom"},
		"job-canceled": {Event: EventCanceled, Error: "context canceled"},
	}
	for id, rec := range terminal {
		for _, r := range []Record{{Event: EventSubmitted, Kind: "analyze"}, {Event: EventStarted, Attempt: 1}, rec} {
			r.Job = id
			if r.Event != EventSubmitted && r.Event != EventStarted {
				r.Attempt = 1
			}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, j *Journal) {
		t.Helper()
		for id := range terminal {
			if st := j.Lookup(id); st == nil || !st.Terminal() || st.Attempts != 1 {
				t.Errorf("%s: %s replayed as %+v, want terminal with 1 attempt", when, id, st)
			}
		}
	}
	j.Close()
	j = open(t, dir, 0)
	check("after reopen", j)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	check("after compaction and reopen", open(t, dir, 0))
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 2)
	for i := 0; i < 500; i++ {
		id := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		if err := j.Append(Record{Job: "job-" + id, Event: EventSubmitted, Kind: "analyze"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Job: "job-" + id, Event: EventDone}); err != nil {
			t.Fatal(err)
		}
	}
	if recs := j.Records(); recs > 100 {
		t.Fatalf("log never auto-compacted: %d records for 2 retained jobs", recs)
	}
}

func TestBlobRoundTripAndSweep(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, 2)
	body := []byte("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	if err := j.PutBlob("sha256:abc123", body); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second put with the same key is a no-op.
	if err := j.PutBlob("sha256:abc123", []byte("different")); err != nil {
		t.Fatal(err)
	}
	got, err := j.Blob("sha256:abc123")
	if err != nil || string(got) != string(body) {
		t.Fatalf("blob round trip: %q, %v", got, err)
	}

	// A referenced blob survives compaction, an orphan is swept.
	if err := j.PutBlob("sha256:orphan", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Job: "job-aa", Event: EventSubmitted, Kind: "analyze", NetlistRef: "sha256:abc123"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Blob("sha256:abc123"); err != nil {
		t.Fatalf("referenced blob swept: %v", err)
	}
	if _, err := j.Blob("sha256:orphan"); err == nil {
		t.Fatal("orphan blob survived compaction")
	}
}

func TestFsyncFailureSurfaces(t *testing.T) {
	defer faultinject.Disable()
	dir := t.TempDir()
	j := open(t, dir, 0)
	if err := faultinject.Enable("journal.fsync=1"); err != nil {
		t.Fatal(err)
	}
	err := j.Append(Record{Job: "job-aa", Event: EventSubmitted, Kind: "analyze"})
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append with failing fsync returned %v, want injected error", err)
	}
	// The failpoint budget is spent; the journal keeps working.
	if err := j.Append(Record{Job: "job-bb", Event: EventSubmitted, Kind: "analyze"}); err != nil {
		t.Fatal(err)
	}
}
