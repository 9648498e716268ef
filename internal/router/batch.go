// Batch fan-out: one /v1/batch request is split item-by-item across
// the ring, executed as concurrent per-shard sub-batches, and merged
// back in the original item order — deterministically, so the merged
// response equals what one big serd would have produced.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/serclient"
)

// batch sections, in wire order.
const (
	secAnalyze = iota
	secOptimize
	secSusceptibility
)

// batchItem is one entry of a batch request awaiting placement.
type batchItem struct {
	section int
	index   int // index into its section's request/response arrays
	key     string
	tried   int // placement attempts so far, rotates the fallback shard
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req serclient.BatchRequest
	if !rt.decode(w, r, &req) {
		return
	}
	total := len(req.Analyze) + len(req.Optimize) + len(req.Susceptibility)
	if total == 0 {
		rt.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if total > rt.cfg.MaxBatchItems {
		rt.writeError(w, http.StatusBadRequest, "batch has %d items, limit is %d", total, rt.cfg.MaxBatchItems)
		return
	}

	resp := serclient.BatchResponse{
		Analyze:        make([]serclient.AnalyzeBatchItem, len(req.Analyze)),
		Optimize:       make([]serclient.OptimizeBatchItem, len(req.Optimize)),
		Susceptibility: make([]serclient.SusceptibilityBatchItem, len(req.Susceptibility)),
	}
	pending := make([]batchItem, 0, total)
	for i, ar := range req.Analyze {
		pending = append(pending, batchItem{section: secAnalyze, index: i, key: routingKey(ar.Circuit, ar.Netlist, ar.Name)})
	}
	for i, or := range req.Optimize {
		pending = append(pending, batchItem{section: secOptimize, index: i, key: routingKey(or.Circuit, or.Netlist, or.Name)})
	}
	for i, sr := range req.Susceptibility {
		pending = append(pending, batchItem{section: secSusceptibility, index: i, key: routingKey(sr.Circuit, sr.Netlist, sr.Name)})
	}

	// Each round assigns every pending item to the first batch-eligible
	// shard on its ring sequence, runs the per-shard sub-batches
	// concurrently, and retries (next round, against refreshed health
	// state) only items whose shard failed at the transport level —
	// HTTP-level answers are final. Bounded by the shard count: every
	// transport failure marks a shard down, so the loop cannot revisit
	// one.
	maxRounds := len(rt.shardList()) + 1
	for round := 0; round < maxRounds && len(pending) > 0; round++ {
		if r.Context().Err() != nil {
			return // client gone
		}
		pending = rt.runBatchRound(r.Context(), r.Header, &req, &resp, pending, round > 0)
	}
	for _, it := range pending {
		setItemError(&resp, it, "no shard available")
	}

	for _, it := range resp.Analyze {
		if it.Result == nil {
			resp.Failed++
		}
	}
	for _, it := range resp.Optimize {
		if it.Result == nil {
			resp.Failed++
		}
	}
	for _, it := range resp.Susceptibility {
		if it.Result == nil {
			resp.Failed++
		}
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

// batchEligible is the batch-item routing predicate: unlike single
// submissions, batch items on serd block on the queue rather than
// shed, so an up-but-saturated shard still accepts a sub-batch (it
// just throttles) — matching single-node batch semantics.
func (sh *shard) batchEligible() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.up && (sh.ready || sh.saturated)
}

// shardGroup is the sub-batch bound for one shard, with the index
// mapping back into the merged response.
type shardGroup struct {
	sh       *shard
	sub      serclient.BatchRequest
	items    []batchItem
	rerouted bool
}

// runBatchRound places items, executes the per-shard sub-batches
// concurrently, merges answers, and returns the items that still need
// a home (transport failures only). hdr is the incoming request's
// header, whose X-Request-ID every sub-batch carries.
func (rt *Router) runBatchRound(ctx context.Context, hdr http.Header, req *serclient.BatchRequest, resp *serclient.BatchResponse, items []batchItem, isRetry bool) (retry []batchItem) {
	groups := make(map[string]*shardGroup)
	var unplaced []batchItem
	for _, it := range items {
		cands := rt.plan(it.key)
		var pick *shard
		rerouted := false
		for i, sh := range cands {
			if !sh.batchEligible() {
				continue
			}
			pick = sh
			rerouted = i > 0 || isRetry
			break
		}
		if pick == nil && len(cands) > 0 {
			// Nothing looks healthy, but the health state is a cache
			// that can go stale; attempt a candidate anyway (rotating
			// across rounds) and let the connection be the judge.
			pick = cands[it.tried%len(cands)]
			rerouted = true
		}
		if pick == nil {
			unplaced = append(unplaced, it)
			continue
		}
		g := groups[pick.name]
		if g == nil {
			g = &shardGroup{sh: pick}
			groups[pick.name] = g
		}
		if rerouted {
			g.rerouted = true
		}
		switch it.section {
		case secAnalyze:
			g.sub.Analyze = append(g.sub.Analyze, req.Analyze[it.index])
		case secOptimize:
			g.sub.Optimize = append(g.sub.Optimize, req.Optimize[it.index])
		case secSusceptibility:
			g.sub.Susceptibility = append(g.sub.Susceptibility, req.Susceptibility[it.index])
		}
		g.items = append(g.items, it)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *shardGroup) {
			defer wg.Done()
			sub, rejected, err := rt.sendBatch(ctx, g.sh, g.sub, hdr)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && rejected == "":
				rt.met.countForward(g.sh.name)
				if g.rerouted {
					rt.met.reroutes.Add(1)
				}
				mergeSubBatch(resp, g.items, sub)
			case err == nil:
				// An HTTP-level rejection (limits, validation) is the
				// shard's final answer for the whole sub-batch.
				for _, it := range g.items {
					setItemError(resp, it, rejected)
				}
			default:
				// Transport failure: the shard is gone; re-place its items
				// next round against refreshed health state.
				g.sh.markDown(err)
				for _, it := range g.items {
					it.tried++
					retry = append(retry, it)
				}
			}
		}(g)
	}
	wg.Wait()
	return append(retry, unplaced...)
}

// sendBatch forwards one sub-batch through send, so it carries the
// same forwarded headers as a single request. A non-2xx shard answer
// comes back as a rejection message in serclient's error format; err
// reports transport and decode failures only.
func (rt *Router) sendBatch(ctx context.Context, sh *shard, sub serclient.BatchRequest, hdr http.Header) (*serclient.BatchResponse, string, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, "", err
	}
	resp, err := rt.send(ctx, sh, http.MethodPost, "/v1/batch", body, hdr)
	if err != nil {
		return nil, "", err
	}
	if resp.status/100 != 2 {
		msg := http.StatusText(resp.status)
		var er serclient.ErrorResponse
		if json.Unmarshal(resp.body, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, fmt.Sprintf("serd: HTTP %d: %s", resp.status, msg), nil
	}
	var out serclient.BatchResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return nil, "", fmt.Errorf("decode batch response from shard %s: %v", sh.name, err)
	}
	return &out, "", nil
}

// mergeSubBatch copies one sub-batch answer into the merged response
// at the items' original indices. Section counters advance in the
// same order items were appended to the sub-request, so the mapping
// is positional per section.
func mergeSubBatch(resp *serclient.BatchResponse, items []batchItem, sub *serclient.BatchResponse) {
	var na, no, ns int
	for _, it := range items {
		switch it.section {
		case secAnalyze:
			if na < len(sub.Analyze) {
				resp.Analyze[it.index] = sub.Analyze[na]
			} else {
				resp.Analyze[it.index].Error = "shard returned a short batch response"
			}
			na++
		case secOptimize:
			if no < len(sub.Optimize) {
				resp.Optimize[it.index] = sub.Optimize[no]
			} else {
				resp.Optimize[it.index].Error = "shard returned a short batch response"
			}
			no++
		case secSusceptibility:
			if ns < len(sub.Susceptibility) {
				resp.Susceptibility[it.index] = sub.Susceptibility[ns]
			} else {
				resp.Susceptibility[it.index].Error = "shard returned a short batch response"
			}
			ns++
		}
	}
}

// setItemError records a terminal per-item failure in the merged
// response.
func setItemError(resp *serclient.BatchResponse, it batchItem, msg string) {
	switch it.section {
	case secAnalyze:
		resp.Analyze[it.index].Error = msg
	case secOptimize:
		resp.Optimize[it.index].Error = msg
	case secSusceptibility:
		resp.Susceptibility[it.index].Error = msg
	}
}
