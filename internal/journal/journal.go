// Package journal is serd's durable write-ahead log for asynchronous
// jobs: an append-only JSONL file recording every job state
// transition (submitted, started, attempt_failed, done, failed,
// canceled), fsync'd per append, so a crash or SIGKILL can never lose
// an accepted job or a completed result.
//
// Layout under the journal directory:
//
//	journal.jsonl  the log, one JSON record per line
//	blobs/         content-addressed netlist bodies too large to
//	               inline in a record (keyed by the canonical content
//	               hash, written atomically: temp + fsync + rename)
//
// Recovery. Open replays the log into per-job states; jobs whose last
// event leaves them queued or running are what a restarting server
// re-enqueues, terminal jobs keep their results servable under the
// original IDs. A torn final line — the only corruption a crashed
// append can produce — is detected and truncated away; corruption
// anywhere earlier is a real error.
//
// Compaction. The log grows by a few records per job; once it holds
// many more records than live state, it is rewritten as one
// submitted(+terminal) pair per retained job into a temp file that
// replaces the log atomically (the same temp+rename discipline as
// ser.SaveLibrary), dropping terminal jobs beyond the retention cap
// and any blobs no retained record references.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Event is one job state transition.
type Event string

// Job lifecycle events, in the order they can occur. attempt_failed
// moves a job back to queued (awaiting a retry); done, failed and
// canceled are terminal.
const (
	EventSubmitted     Event = "submitted"
	EventStarted       Event = "started"
	EventAttemptFailed Event = "attempt_failed"
	EventDone          Event = "done"
	EventFailed        Event = "failed"
	EventCanceled      Event = "canceled"
)

// Record is one journal line.
type Record struct {
	Seq    int64  `json:"seq"`
	TimeMS int64  `json:"time_ms"` // unix milliseconds
	Job    string `json:"job"`
	Event  Event  `json:"event"`

	// Submission fields (EventSubmitted only). Request is the wire
	// request JSON with its netlist field stripped; the netlist body
	// lives in Netlist when small, or in the blob named by NetlistRef
	// when large. ContentHash is the circuit's content address (cache
	// key); Deadline (unix ms, 0 = none) bounds the job's total wall
	// clock including retries.
	Kind           string          `json:"kind,omitempty"`
	Request        json.RawMessage `json:"request,omitempty"`
	Netlist        string          `json:"netlist,omitempty"`
	NetlistRef     string          `json:"netlist_ref,omitempty"`
	ContentHash    string          `json:"content_hash,omitempty"`
	IdempotencyKey string          `json:"idempotency_key,omitempty"`
	DeadlineMS     int64           `json:"deadline_ms,omitempty"`
	// RequestID is the X-Request-ID of the submission that accepted the
	// job, so a trace can be followed from an HTTP access log into the
	// journal and back out of a recovered job after a restart.
	RequestID string `json:"request_id,omitempty"`

	// Attempt/terminal fields.
	Attempt int             `json:"attempt,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// JobState is the replayed state of one job.
type JobState struct {
	ID             string
	Kind           string
	Request        json.RawMessage
	Netlist        string // inline netlist body ("" when absent or spilled)
	NetlistRef     string // blob key when the netlist was spilled
	ContentHash    string
	IdempotencyKey string
	RequestID      string    // X-Request-ID of the accepting submission
	Deadline       time.Time // zero = no deadline
	Submitted      time.Time

	// Status is the job's journal-derived state: "queued", "running",
	// "done", "failed" or "canceled". attempt_failed maps back to
	// "queued".
	Status string
	// Attempts is the attempt count recorded so far: the failed
	// attempts of a queued job, every attempt of a finished one.
	Attempts int
	Error    string
	Result   json.RawMessage

	seq int64 // submission order
}

// Terminal reports whether the job can never run again.
func (st *JobState) Terminal() bool {
	switch st.Status {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// maxLine bounds one journal line during replay (results inline big
// per-gate reports; netlists beyond the caller's spill threshold live
// in blobs). A longer line is treated as corruption.
const maxLine = 64 << 20

// Journal is an open job journal. All methods are safe for concurrent
// use.
type Journal struct {
	dir          string
	keepTerminal int

	mu      sync.Mutex
	f       *os.File
	seq     int64
	records int // lines currently in the file
	jobs    map[string]*JobState
	closed  bool
}

// Open opens (creating if needed) the journal in dir and replays its
// log. keepTerminal bounds how many terminal jobs compaction retains
// (<= 0 selects 1024). The returned Journal holds the replayed state;
// read it with Jobs or Pending before appending new records.
func Open(dir string, keepTerminal int) (*Journal, error) {
	if keepTerminal <= 0 {
		keepTerminal = 1024
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %v", err)
	}
	j := &Journal{dir: dir, keepTerminal: keepTerminal, jobs: map[string]*JobState{}}
	if err := j.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.path(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %v", err)
	}
	j.f = f
	if j.overgrown() {
		if err := j.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

func (j *Journal) path() string { return filepath.Join(j.dir, "journal.jsonl") }

// replay loads the log into j.jobs, truncating a torn final line.
func (j *Journal) replay() error {
	f, err := os.Open(j.path())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %v", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	var good int64 // byte offset past the last valid record
	var torn bool
	for sc.Scan() {
		line := sc.Bytes()
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job == "" || rec.Event == "" {
			// Only the final line can legitimately be torn (a crash
			// mid-append); replay stops here and Open truncates the
			// tail. An invalid line followed by valid ones is real
			// corruption, surfaced below.
			torn = true
			break
		}
		j.apply(&rec)
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		good += int64(len(line)) + 1
		j.records++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: reading log: %v", err)
	}
	if torn {
		// Check nothing valid follows the bad line before truncating.
		rest := int64(0)
		for sc.Scan() {
			var rec Record
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Job != "" && rec.Event != "" {
				return fmt.Errorf("journal: corrupt record mid-log at byte %d", good+rest)
			}
			rest += int64(len(sc.Bytes())) + 1
		}
		if err := os.Truncate(j.path(), good); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %v", err)
		}
		slog.Default().Warn("journal: truncated torn final record",
			"dir", j.dir, "offset", good, "records", j.records)
	}
	return nil
}

// apply folds one record into the state map.
func (j *Journal) apply(rec *Record) {
	st := j.jobs[rec.Job]
	if st == nil {
		st = &JobState{ID: rec.Job, Status: "queued", seq: rec.Seq}
		j.jobs[rec.Job] = st
	}
	// A started record's attempt has not ended; failure and terminal
	// records carry the count.
	switch rec.Event {
	case EventAttemptFailed, EventDone, EventFailed, EventCanceled:
		st.Attempts = max(st.Attempts, rec.Attempt)
	}
	switch rec.Event {
	case EventSubmitted:
		st.Kind = rec.Kind
		st.Request = rec.Request
		st.Netlist = rec.Netlist
		st.NetlistRef = rec.NetlistRef
		st.ContentHash = rec.ContentHash
		st.IdempotencyKey = rec.IdempotencyKey
		st.RequestID = rec.RequestID
		st.Submitted = time.UnixMilli(rec.TimeMS)
		if rec.DeadlineMS > 0 {
			st.Deadline = time.UnixMilli(rec.DeadlineMS)
		}
		st.Status = "queued"
	case EventStarted:
		st.Status = "running"
	case EventAttemptFailed:
		st.Status = "queued"
		st.Error = rec.Error
	case EventDone:
		st.Status = "done"
		st.Result = rec.Result
		st.Error = ""
	case EventFailed:
		st.Status = "failed"
		st.Error = rec.Error
	case EventCanceled:
		st.Status = "canceled"
		st.Error = rec.Error
	}
}

// Append durably records one state transition: the line is written
// and fsync'd before Append returns nil. Seq and TimeMS are assigned
// here.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	j.seq++
	rec.Seq = j.seq
	rec.TimeMS = time.Now().UnixMilli()
	line, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("journal: marshal: %v", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: append: %v", err)
	}
	if err := j.sync(j.f); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.apply(&rec)
	j.records++
	if j.overgrown() {
		return j.compactLocked()
	}
	return nil
}

// sync is fsync with the test failpoint in front.
func (j *Journal) sync(f *os.File) error {
	if err := faultinject.Err("journal.fsync"); err != nil {
		return err
	}
	return f.Sync()
}

// overgrown reports whether the log holds enough dead weight — records
// beyond what compaction would retain — to be worth rewriting. Called
// with mu held.
func (j *Journal) overgrown() bool {
	pending, terminal := 0, 0
	for _, st := range j.jobs {
		if st.Terminal() {
			terminal++
		} else {
			pending++
		}
	}
	retained := pending + min(terminal, j.keepTerminal)
	return j.records > 4*retained+64
}

// retainLocked lists the jobs compaction keeps, in submission order:
// every pending job plus the most recent keepTerminal terminal ones.
func (j *Journal) retainLocked() []*JobState {
	all := make([]*JobState, 0, len(j.jobs))
	for _, st := range j.jobs {
		all = append(all, st)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	terminal := 0
	for _, st := range all {
		if st.Terminal() {
			terminal++
		}
	}
	drop := terminal - j.keepTerminal
	keep := all[:0]
	for _, st := range all {
		if st.Terminal() && drop > 0 {
			drop--
			continue
		}
		keep = append(keep, st)
	}
	return keep
}

// Compact rewrites the log to its minimal form: one submitted record
// (plus one status record when needed) per retained job, atomically
// replacing the old log, then removes blobs no retained job
// references.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	keep := j.retainLocked()
	tmp, err := os.CreateTemp(j.dir, "journal.jsonl.tmp*")
	if err != nil {
		return fmt.Errorf("journal: compact: %v", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %v", err)
	}

	w := bufio.NewWriter(tmp)
	var seq int64
	records := 0
	emit := func(rec Record) error {
		seq++
		rec.Seq = seq
		line, err := json.Marshal(&rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
		records++
		return nil
	}
	for _, st := range keep {
		sub := Record{
			TimeMS:         st.Submitted.UnixMilli(),
			Job:            st.ID,
			Event:          EventSubmitted,
			Kind:           st.Kind,
			Request:        st.Request,
			Netlist:        st.Netlist,
			NetlistRef:     st.NetlistRef,
			ContentHash:    st.ContentHash,
			IdempotencyKey: st.IdempotencyKey,
			RequestID:      st.RequestID,
		}
		if !st.Deadline.IsZero() {
			sub.DeadlineMS = st.Deadline.UnixMilli()
		}
		if err := emit(sub); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %v", err)
		}
		var follow *Record
		switch st.Status {
		case "done":
			follow = &Record{Job: st.ID, Event: EventDone, Result: st.Result, Attempt: st.Attempts}
		case "failed":
			follow = &Record{Job: st.ID, Event: EventFailed, Error: st.Error, Attempt: st.Attempts}
		case "canceled":
			follow = &Record{Job: st.ID, Event: EventCanceled, Error: st.Error, Attempt: st.Attempts}
		default:
			if st.Attempts > 0 {
				follow = &Record{Job: st.ID, Event: EventAttemptFailed, Attempt: st.Attempts, Error: st.Error}
			}
		}
		if follow != nil {
			follow.TimeMS = time.Now().UnixMilli()
			if err := emit(*follow); err != nil {
				tmp.Close()
				return fmt.Errorf("journal: compact: %v", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %v", err)
	}
	if err := j.sync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact fsync: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: compact: %v", err)
	}
	if err := os.Rename(tmp.Name(), j.path()); err != nil {
		return fmt.Errorf("journal: compact rename: %v", err)
	}
	if err := j.syncDir(); err != nil {
		return err
	}

	// Point the append handle at the new file.
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact reopen: %v", err)
	}
	j.f = f
	j.seq = seq
	j.records = records

	// Rebuild state from the retained set (dropped terminal jobs leave
	// the map) and sweep unreferenced blobs.
	j.jobs = make(map[string]*JobState, len(keep))
	referenced := map[string]bool{}
	for i, st := range keep {
		st.seq = int64(i)
		j.jobs[st.ID] = st
		if st.NetlistRef != "" {
			referenced[blobFile(st.NetlistRef)] = true
		}
	}
	j.sweepBlobs(referenced)
	return nil
}

// syncDir fsyncs the journal directory so a rename (log compaction,
// blob publish) survives power loss.
func (j *Journal) syncDir() error {
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %v", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: dir fsync: %v", err)
	}
	return nil
}

// sweepBlobs removes blob files absent from referenced. Best-effort:
// a failed removal only wastes disk.
func (j *Journal) sweepBlobs(referenced map[string]bool) {
	entries, err := os.ReadDir(filepath.Join(j.dir, "blobs"))
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && !referenced[e.Name()] {
			os.Remove(filepath.Join(j.dir, "blobs", e.Name()))
		}
	}
}

// Jobs returns the replayed job states in submission order.
func (j *Journal) Jobs() []*JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*JobState, 0, len(j.jobs))
	for _, st := range j.jobs {
		c := *st
		out = append(out, &c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Pending returns the jobs that must be re-enqueued after a restart:
// those whose last journaled state is queued or running, in
// submission order.
func (j *Journal) Pending() []*JobState {
	var out []*JobState
	for _, st := range j.Jobs() {
		if !st.Terminal() {
			out = append(out, st)
		}
	}
	return out
}

// Lookup returns the state of one job, or nil.
func (j *Journal) Lookup(id string) *JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	st, ok := j.jobs[id]
	if !ok {
		return nil
	}
	c := *st
	return &c
}

// Records reports how many lines the log currently holds (for tests
// and metrics).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Close releases the log handle. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// blobFile maps a content key ("sha256:<hex>") to a safe file name.
func blobFile(key string) string {
	return strings.ReplaceAll(key, ":", "-")
}

// PutBlob stores a content-addressed body under key (atomic: temp +
// fsync + rename + dir fsync). An existing blob with the key is kept
// as-is — content addressing makes the first write authoritative.
func (j *Journal) PutBlob(key string, data []byte) error {
	path := filepath.Join(j.dir, "blobs", blobFile(key))
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Join(j.dir, "blobs"), "blob.tmp*")
	if err != nil {
		return fmt.Errorf("journal: blob: %v", err)
	}
	defer os.Remove(tmp.Name())
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: blob: %v", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: blob: %v", err)
	}
	if err := j.sync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: blob fsync: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: blob: %v", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: blob rename: %v", err)
	}
	return j.syncDir()
}

// Blob loads a body stored by PutBlob.
func (j *Journal) Blob(key string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(j.dir, "blobs", blobFile(key)))
	if err != nil {
		return nil, fmt.Errorf("journal: blob %s: %v", key, err)
	}
	return data, nil
}
