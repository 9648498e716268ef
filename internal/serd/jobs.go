package serd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"repro/serclient"
)

// newJobID returns an unguessable, collision-free job ID. IDs must be
// random, not sequential: a guessable ID would let one client poll
// another's results, and sequential counters collide across process
// restarts when jobs are recovered from a journal.
func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serd: crypto/rand unavailable: " + err.Error())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// job is one queued unit of work. Status transitions are guarded by
// the owning store's mutex; done is closed exactly once when the job
// reaches a terminal state.
type job struct {
	id   string
	kind string

	// ctx is the job's own context (set at creation, under the store
	// lock): cancellation while queued means the job never runs. For
	// async jobs with a deadline it carries the deadline too.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// async marks a detached job (eligible for retries); journaled
	// marks one whose lifecycle is mirrored to the durable journal.
	async     bool
	journaled bool

	// requestID is the X-Request-ID of the accepting submission,
	// carried into the job's journal records and wire responses so one
	// trace spans edge, queue and durable state. Immutable after the
	// job is published to the store.
	requestID string

	status   string
	attempts int // execution attempts started
	result   any // *serclient.{Analyze,Optimize,Susceptibility}Response
	err      error
	created  time.Time
	deadline time.Time // zero = none
}

// jobStore tracks jobs for GET /v1/jobs/{id}, retaining at most keep
// entries: once over the cap the oldest finished jobs are evicted
// (live jobs are never dropped).
type jobStore struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	keep  int
}

func newJobStore(keep int) *jobStore {
	if keep < 1 {
		keep = 1
	}
	return &jobStore{jobs: make(map[string]*job), keep: keep}
}

func (st *jobStore) create(kind, requestID string, ctx context.Context, cancel context.CancelFunc) *job {
	j := &job{
		id:        newJobID(),
		kind:      kind,
		requestID: requestID,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    serclient.JobQueued,
		created:   time.Now(),
	}
	st.add(j)
	return j
}

// restore inserts a journal-recovered job under its original ID: a
// terminal job arrives with its result/error and a closed done
// channel, a pending one as queued with its attempt count.
func (st *jobStore) restore(j *job) {
	if j.done == nil {
		j.done = make(chan struct{})
	}
	switch j.status {
	case serclient.JobDone, serclient.JobFailed, serclient.JobCanceled:
		close(j.done)
	}
	st.add(j)
}

func (st *jobStore) add(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.evictLocked()
}

func isTerminal(status string) bool {
	return status == serclient.JobDone || status == serclient.JobFailed || status == serclient.JobCanceled
}

// evictLocked drops the oldest terminal jobs while over the cap, in
// one forward sweep: each entry is examined once, evictable entries
// are deleted and survivors compacted in place. (The previous
// implementation rescanned order from the front for every single
// eviction — O(n²) when thousands of finished jobs queue up behind a
// few long-lived live ones.)
func (st *jobStore) evictLocked() {
	over := len(st.order) - st.keep
	if over <= 0 {
		return
	}
	w := 0
	for _, id := range st.order {
		j, ok := st.jobs[id]
		if !ok {
			continue // dangling entry: drop from order
		}
		if over > 0 && isTerminal(j.status) {
			delete(st.jobs, id)
			over--
			continue
		}
		st.order[w] = id
		w++
	}
	clear(st.order[w:])
	st.order = st.order[:w]
}

func (st *jobStore) get(id string) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jobs[id]
}

// markRunning moves a queued job to running and returns the attempt
// number just started (1-based); it returns 0 when the job was not
// queued (already terminal or running).
func (st *jobStore) markRunning(j *job) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.status != serclient.JobQueued {
		return 0
	}
	j.status = serclient.JobRunning
	j.attempts++
	return j.attempts
}

// failAttempt moves a running job back to queued after a failed
// attempt, recording the error for visibility while it waits for its
// retry. Returns the attempt count so far.
func (st *jobStore) failAttempt(j *job, err error) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.status = serclient.JobQueued
	j.err = err
	return j.attempts
}

// finish moves j to its terminal state and returns it, with first
// reporting whether this call performed the transition (so terminal
// side effects — journaling, metrics — happen exactly once).
// Cancellation errors (from the job's own context) surface as
// JobCanceled.
func (st *jobStore) finish(j *job, result any, err error) (status string, first bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if isTerminal(j.status) {
		return j.status, false // already terminal (e.g. raced cancel): keep the first outcome
	}
	switch {
	case err == nil:
		j.status = serclient.JobDone
		j.result = result
		j.err = nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = serclient.JobCanceled
		j.err = err
	default:
		j.status = serclient.JobFailed
		j.err = err
	}
	close(j.done)
	return j.status, true
}

// response snapshots the job as its wire representation.
func (st *jobStore) response(j *job) serclient.JobResponse {
	st.mu.Lock()
	defer st.mu.Unlock()
	resp := serclient.JobResponse{ID: j.id, Kind: j.kind, Status: j.status, Attempts: j.attempts, RequestID: j.requestID}
	if j.err != nil {
		resp.Error = j.err.Error()
	}
	placeResult(&resp, j.result)
	return resp
}

// outcome snapshots a job's status, result and error message.
func (st *jobStore) outcome(j *job) (status string, result any, errMsg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.err != nil {
		errMsg = j.err.Error()
	}
	return j.status, j.result, errMsg
}

// placeResult sets a finished job's result on its wire form, in the
// field its kind's flow names. The in-memory store and the journal
// fallback of GET /v1/jobs/{id} both place through it.
func placeResult(jr *serclient.JobResponse, res any) {
	if f := flowFor(jr.Kind); f != nil {
		f.place(jr, res)
	}
}
