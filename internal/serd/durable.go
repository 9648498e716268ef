// Durability pipeline for asynchronous jobs: journaling, restart
// recovery, retry with backoff, idempotent resubmission, and overload
// shedding. Synchronous jobs never touch this file beyond runJob.
package serd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/serclient"
)

// journalSpillBytes is the inline-netlist size above which the body is
// spilled to a content-addressed blob instead of being embedded in the
// submitted record (keeping journal lines small and replay cheap).
const journalSpillBytes = 4096

// asyncMeta carries what an async submission needs journaled: the wire
// request with its netlist field stripped, the canonical netlist text
// (inline submissions only) with its content address, the client's
// Idempotency-Key, and the request ID the edge assigned.
type asyncMeta struct {
	req        any
	netlist    string
	contentKey string
	idemKey    string
	requestID  string
}

// newAsyncMeta assembles the journaling metadata for one submission.
// jreq must be the request value with Netlist already cleared; the
// canonical netlist body is recovered from the compiled circuit so the
// journal stores the form whose replay is a fixed point (re-parsing it
// canonicalizes to itself, and the already-remapped InitState needs no
// further permutation).
func (s *Server) newAsyncMeta(r *http.Request, jreq any, ld loaded) asyncMeta {
	meta := asyncMeta{
		req:       jreq,
		idemKey:   r.Header.Get("Idempotency-Key"),
		requestID: trace.RequestID(r.Context()),
	}
	if s.jnl != nil && ld.h != nil && strings.HasPrefix(ld.key, "sha256:") {
		if b, err := bench.CanonicalBytes(ld.h.Circuit()); err == nil {
			meta.netlist, meta.contentKey = string(b), ld.key
		}
	}
	return meta
}

// dispatchAsync accepts one asynchronous submission: dedup by
// Idempotency-Key, shed with 429 when the queue has no room, journal
// the accepted job durably before acknowledging, enqueue the first
// attempt, answer 202.
func (s *Server) dispatchAsync(w http.ResponseWriter, kind string, meta asyncMeta, run func(ctx context.Context) (any, error)) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// Cheap saturation pre-check before any durable work: a shed
	// submission must not cost an fsync.
	if s.queue.Depth() >= s.cfg.QueueDepth {
		s.shed(w)
		return
	}
	j, existing := s.newAsyncJob(kind, meta.idemKey, meta.requestID)
	if existing != nil {
		s.writeJSON(w, http.StatusOK, s.jobs.response(existing))
		return
	}
	if err := s.journalSubmitted(j, meta); err != nil {
		s.met.journalErrors.Add(1)
		s.idemForget(meta.idemKey)
		s.finishJob(j, nil, fmt.Errorf("journal write failed: %w", err))
		s.writeError(w, http.StatusInternalServerError, "cannot persist job: %v", err)
		return
	}
	if err := s.enqueueAttempt(j, run); err != nil {
		if errors.Is(err, par.ErrQueueFull) {
			// Raced past the pre-check into a full FIFO. The submission
			// is already journaled, so record the terminal outcome
			// before shedding.
			s.idemForget(meta.idemKey)
			s.finishJob(j, nil, fmt.Errorf("queue full: %w", err))
			s.shed(w)
			return
		}
		s.idemForget(meta.idemKey)
		s.finishJob(j, nil, err)
		s.submitError(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, s.jobs.response(j))
}

// newAsyncJob creates a detached job carrying the configured deadline
// and the submission's request ID, atomically claiming idemKey: when
// the key is already bound, no job is created and the existing one is
// returned instead.
func (s *Server) newAsyncJob(kind, idemKey, requestID string) (j, existing *job) {
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if idemKey != "" {
		if prev, ok := s.idem[idemKey]; ok {
			return nil, prev
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	var deadline time.Time
	if s.cfg.JobTimeout > 0 {
		deadline = time.Now().Add(s.cfg.JobTimeout)
		ctx, cancel = context.WithDeadline(s.baseCtx, deadline)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	ctx = trace.WithRequestID(ctx, requestID)
	j = s.jobs.create(kind, requestID, ctx, cancel)
	j.async = true
	j.deadline = deadline
	if idemKey != "" {
		s.idemBindLocked(idemKey, j)
	}
	return j, nil
}

// idemBindLocked records key → job, evicting the oldest binding once
// over the KeepJobs cap. Called with idemMu held.
func (s *Server) idemBindLocked(key string, j *job) {
	s.idem[key] = j
	s.idemOrder = append(s.idemOrder, key)
	for len(s.idemOrder) > s.cfg.KeepJobs {
		delete(s.idem, s.idemOrder[0])
		s.idemOrder = s.idemOrder[1:]
	}
}

// idemForget unbinds a key whose submission failed after claiming it,
// so a client retry is not answered with the failed job forever.
func (s *Server) idemForget(key string) {
	if key == "" {
		return
	}
	s.idemMu.Lock()
	delete(s.idem, key)
	s.idemMu.Unlock()
}

// shed answers an overload with 429 and a Retry-After hint scaled to
// the current backlog per worker.
func (s *Server) shed(w http.ResponseWriter) {
	s.met.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.writeError(w, http.StatusTooManyRequests, "queue full; retry after the indicated delay")
}

func (s *Server) retryAfterSeconds() int {
	sec := 1 + s.queue.Depth()/max(s.queue.Workers(), 1)
	return min(sec, 60)
}

// submitError maps a queue submission failure to its HTTP form: full →
// 429 shed, anything else (closed, canceled) → 503.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	if errors.Is(err, par.ErrQueueFull) {
		s.shed(w)
		return
	}
	s.writeError(w, http.StatusServiceUnavailable, "cannot accept job: %v", err)
}

// enqueueAttempt places the job's next execution attempt on the queue.
func (s *Server) enqueueAttempt(j *job, run func(ctx context.Context) (any, error)) error {
	return s.queue.TrySubmit(j.ctx, func(ctx context.Context) { s.runJob(j, run) })
}

// runJob executes one attempt of a job on a worker, then finishes it
// or — for async jobs with retryable failures and attempts left —
// schedules the next attempt after a backoff.
func (s *Server) runJob(j *job, run func(ctx context.Context) (any, error)) {
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, nil, err)
		return
	}
	attempt := s.jobs.markRunning(j)
	if attempt == 0 {
		return // terminal already (raced cancel); nothing to run
	}
	if j.journaled {
		s.journalAppend(journal.Record{Job: j.id, Event: journal.EventStarted, Attempt: attempt})
	}
	res, err := runAttempt(j.ctx, run)
	switch {
	case err == nil:
		s.finishJob(j, res, nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, nil, err) // terminal: canceled/deadline, never retried
	case !j.async || attempt >= s.cfg.MaxAttempts:
		s.finishJob(j, nil, err)
	default:
		s.scheduleRetry(j, attempt, err, run)
	}
}

// runAttempt runs one attempt under panic containment: a panicking
// engine (or injected fault) becomes an ordinary attempt error instead
// of killing the process. The faultinject sites are no-ops unless
// SERD_FAULTS enables them.
func runAttempt(ctx context.Context, run func(ctx context.Context) (any, error)) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	faultinject.Sleep("serd.engine.delay")
	if faultinject.Fire("serd.worker.panic") {
		panic("injected worker panic")
	}
	if ferr := faultinject.Err("serd.engine.fail"); ferr != nil {
		return nil, ferr
	}
	return run(ctx)
}

// scheduleRetry journals the failed attempt, moves the job back to
// queued, and re-enqueues it after an exponential backoff with jitter.
// A retry that finds the queue momentarily full backs off again; one
// that finds it closed (shutdown) leaves a journaled job durably
// queued for the next incarnation.
func (s *Server) scheduleRetry(j *job, attempt int, err error, run func(ctx context.Context) (any, error)) {
	s.jobs.failAttempt(j, err)
	if j.journaled {
		s.journalAppend(journal.Record{Job: j.id, Event: journal.EventAttemptFailed, Attempt: attempt, Error: err.Error()})
	}
	s.met.retries.Add(1)
	delay := backoffDelay(s.cfg.RetryBaseDelay, s.cfg.RetryMaxDelay, attempt)
	s.log.Warn("job attempt failed; retrying",
		"job", j.id, "kind", j.kind, "request_id", j.requestID,
		"attempt", attempt, "max_attempts", s.cfg.MaxAttempts,
		"backoff", delay, "err", err)
	var resubmit func()
	resubmit = func() {
		if cerr := j.ctx.Err(); cerr != nil {
			s.finishJob(j, nil, cerr)
			return
		}
		switch qerr := s.enqueueAttempt(j, run); {
		case qerr == nil:
		case errors.Is(qerr, par.ErrQueueFull):
			time.AfterFunc(delay, resubmit)
		case errors.Is(qerr, par.ErrQueueClosed) && j.journaled:
			// Shutdown raced the retry timer: the job's last journaled
			// state is queued, so the next start re-enqueues it.
		default:
			s.finishJob(j, nil, qerr)
		}
	}
	time.AfterFunc(delay, resubmit)
}

// backoffDelay is the exponential-with-jitter retry delay after the
// given (1-based) attempt: base·2^(attempt−1) capped at max, then
// jittered uniformly over [d/2, d] so synchronized failures do not
// retry in lockstep.
func backoffDelay(base, maxDelay time.Duration, attempt int) time.Duration {
	d := maxDelay
	if shift := attempt - 1; shift < 20 && base<<shift < maxDelay {
		d = base << shift
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int64N(half+1))
}

// journalSubmitted durably records an accepted submission before the
// client is acknowledged. Large netlists spill to a content-addressed
// blob; small ones inline into the record.
func (s *Server) journalSubmitted(j *job, meta asyncMeta) error {
	if s.jnl == nil {
		return nil
	}
	reqJSON, err := json.Marshal(meta.req)
	if err != nil {
		return fmt.Errorf("marshal request: %v", err)
	}
	rec := journal.Record{
		Job:            j.id,
		Event:          journal.EventSubmitted,
		Kind:           j.kind,
		Request:        reqJSON,
		IdempotencyKey: meta.idemKey,
		RequestID:      j.requestID,
	}
	if !j.deadline.IsZero() {
		rec.DeadlineMS = j.deadline.UnixMilli()
	}
	if meta.netlist != "" {
		rec.ContentHash = meta.contentKey
		if len(meta.netlist) <= journalSpillBytes {
			rec.Netlist = meta.netlist
		} else {
			if err := s.jnl.PutBlob(meta.contentKey, []byte(meta.netlist)); err != nil {
				return err
			}
			rec.NetlistRef = meta.contentKey
		}
	}
	if err := s.jnl.Append(rec); err != nil {
		return err
	}
	j.journaled = true
	return nil
}

// journalAppend mirrors a non-submission transition to the journal.
// Failures here must not fail the job (the in-memory state is still
// correct); they are counted and the job carries on.
func (s *Server) journalAppend(rec journal.Record) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Append(rec); err != nil {
		s.met.journalErrors.Add(1)
	}
}

// journalTerminal records a job's terminal state. j.attempts is stable
// here: finish already ran, and no transition mutates a terminal job.
func (s *Server) journalTerminal(j *job, status string, res any, err error) {
	rec := journal.Record{Job: j.id, Attempt: j.attempts}
	switch status {
	case serclient.JobDone:
		b, merr := json.Marshal(res)
		if merr != nil {
			s.met.journalErrors.Add(1)
			return
		}
		rec.Event, rec.Result = journal.EventDone, b
	case serclient.JobFailed:
		rec.Event, rec.Error = journal.EventFailed, errString(err)
	case serclient.JobCanceled:
		rec.Event, rec.Error = journal.EventCanceled, errString(err)
	default:
		return
	}
	s.journalAppend(rec)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// restoreJournal replays the journal into the server: terminal jobs
// become servable results under their original IDs, pending jobs are
// re-enqueued (with their original deadlines and attempt counts), and
// idempotency keys are re-bound so client retries spanning the crash
// still deduplicate. Called from New, before the server is ready.
func (s *Server) restoreJournal() {
	jobs := s.jnl.Jobs()
	var reenqueued, served, failed int
	for _, js := range jobs {
		j := s.rebuildJob(js)
		if js.IdempotencyKey != "" {
			s.idemMu.Lock()
			s.idemBindLocked(js.IdempotencyKey, j)
			s.idemMu.Unlock()
		}
		if isTerminal(j.status) {
			served++
			continue
		}
		run, err := s.rebuildRun(js)
		if err != nil {
			s.finishJob(j, nil, fmt.Errorf("recovery: %v", err))
			failed++
			continue
		}
		s.met.recovered.Add(1)
		// Blocking submit: recovery may re-enqueue more jobs than the
		// FIFO holds; workers are already draining it.
		if qerr := s.queue.Submit(j.ctx, func(ctx context.Context) { s.runJob(j, run) }); qerr != nil {
			s.finishJob(j, nil, qerr)
			failed++
			continue
		}
		reenqueued++
	}
	s.log.Info("journal replay complete",
		"jobs", len(jobs), "reenqueued", reenqueued,
		"completed_served", served, "recovery_failed", failed,
		"journal_records", s.jnl.Records())
}

// rebuildJob reconstructs the in-memory job for one journaled state
// and installs it in the store under its original ID.
func (s *Server) rebuildJob(js *journal.JobState) *job {
	j := &job{
		id:        js.ID,
		kind:      js.Kind,
		requestID: js.RequestID,
		async:     true,
		journaled: true,
		status:    js.Status,
		attempts:  js.Attempts,
		created:   js.Submitted,
		deadline:  js.Deadline,
	}
	if js.Error != "" {
		j.err = errors.New(js.Error)
	}
	switch js.Status {
	case serclient.JobDone:
		if res, err := decodeResult(js.Kind, js.Result); err == nil {
			j.result = res
			j.err = nil
		} else {
			j.status = serclient.JobFailed
			j.err = fmt.Errorf("recovery: decode result: %v", err)
		}
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
		j.cancel()
	case serclient.JobFailed, serclient.JobCanceled:
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
		j.cancel()
	default:
		// A journaled "running" job died mid-attempt with the process;
		// it resumes as queued.
		j.status = serclient.JobQueued
		if !js.Deadline.IsZero() {
			j.ctx, j.cancel = context.WithDeadline(s.baseCtx, js.Deadline)
		} else {
			j.ctx, j.cancel = context.WithCancel(s.baseCtx)
		}
	}
	s.jobs.restore(j)
	return j
}

// rebuildRun reconstructs a pending job's body from its journaled
// request: the netlist body (inline or from its blob), then the kind's
// flow, whose replay decodes the request and runs the same prepare step
// as a submission.
func (s *Server) rebuildRun(js *journal.JobState) (func(ctx context.Context) (any, error), error) {
	netlist := js.Netlist
	if js.NetlistRef != "" {
		b, err := s.jnl.Blob(js.NetlistRef)
		if err != nil {
			return nil, err
		}
		netlist = string(b)
	}
	f := flowFor(js.Kind)
	if f == nil {
		return nil, fmt.Errorf("unknown job kind %q", js.Kind)
	}
	return f.replay(s, js.Request, netlist)
}

// decodeResult deserializes a journaled terminal result into its typed
// response, by job kind.
func decodeResult(kind string, raw json.RawMessage) (any, error) {
	f := flowFor(kind)
	if f == nil {
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
	return f.decodeResult(raw)
}

// jobStateResponse shapes a journaled state as the wire job response —
// the fallback for jobs evicted from the in-memory store.
func jobStateResponse(js *journal.JobState) (serclient.JobResponse, error) {
	resp := serclient.JobResponse{ID: js.ID, Kind: js.Kind, Status: js.Status, Attempts: js.Attempts, Error: js.Error, RequestID: js.RequestID}
	if js.Status == serclient.JobDone {
		res, err := decodeResult(js.Kind, js.Result)
		if err != nil {
			return resp, err
		}
		placeResult(&resp, res)
	}
	return resp, nil
}
