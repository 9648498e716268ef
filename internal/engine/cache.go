package engine

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is a bounded, content-addressed store of compiled circuits:
// the serving tier keys it by the SHA-256 of a netlist's canonical
// .bench form (or by benchmark name), so repeat analyses of the same
// netlist skip parse+compile+simulation entirely.
//
// Eviction is LRU weighted by CompiledCircuit.Weight (gate-record
// count): the cache holds at most Budget total weight, except that a
// single entry heavier than the whole budget is still admitted alone
// (refusing it would make the largest circuits permanently uncachable,
// which is exactly the traffic a cache is for). Concurrent Get calls
// for one missing key coalesce on a single build (singleflight); a
// build error is returned to every waiter and never cached.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	entries   map[string]*cacheEntry
	lru       *list.List // front = most recently used; ready entries only
	hits      int64
	misses    int64
	evictions int64

	// artifacts, when non-nil, is the persistent second level: an
	// in-memory miss first tries ArtifactStore.Load (a warm restart
	// serves its first request without recompiling), and a successful
	// build is written back so the next process finds it.
	artifacts *ArtifactStore
}

type cacheEntry struct {
	key    string
	cc     *CompiledCircuit
	weight int64
	elem   *list.Element // nil while building or after eviction
	ready  chan struct{}
	err    error
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Weight, Budget          int64
}

// HitRate returns the fraction of lookups served from the cache, or 0
// before any lookup. In a sharded deployment a healthy per-shard hit
// rate is the observable proof that consistent-hash routing is keeping
// each circuit on the shard that already compiled it.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// NewCache creates a cache holding at most budget total weight
// (gate records across all cached handles). budget <= 0 selects a
// default of 500,000 — roughly a hundred ISCAS-scale circuits.
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = 500000
	}
	return &Cache{
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// NewCacheWithArtifacts creates a cache backed by a persistent
// artifact store: in-memory misses consult the store before building,
// and successful builds are persisted. store may be nil, in which case
// the cache behaves exactly like NewCache.
func NewCacheWithArtifacts(budget int64, store *ArtifactStore) *Cache {
	ca := NewCache(budget)
	ca.artifacts = store
	return ca
}

// Artifacts returns the persistent second-level store, or nil.
func (ca *Cache) Artifacts() *ArtifactStore { return ca.artifacts }

// Get returns the compiled circuit for key, building it at most once:
// the first caller for a missing key runs build while concurrent
// callers for the same key block on that result. A successful build is
// cached (evicting least-recently-used entries past the budget); a
// failed build is not, and its error goes to every coalesced caller.
func (ca *Cache) Get(key string, build func() (*CompiledCircuit, error)) (*CompiledCircuit, error) {
	ca.mu.Lock()
	if e, ok := ca.entries[key]; ok {
		select {
		case <-e.ready:
			// Ready: a hit unless the build failed (failed entries are
			// removed under the same lock that closes ready, so seeing
			// one here is a benign race with removal — retry below).
			if e.err == nil {
				ca.hits++
				ca.lru.MoveToFront(e.elem)
				// Re-weigh: the handle's memo grows between accesses
				// (sensitization results, electrical statics), and the
				// budget must track retained memory, not just gate count.
				if w := e.cc.Weight(); w != e.weight {
					ca.used += w - e.weight
					e.weight = w
					ca.evictLocked(e)
				}
				ca.mu.Unlock()
				return e.cc, nil
			}
		default:
			// In flight: coalesce — the caller is served without a
			// second parse+compile. The hit is counted only once the
			// build succeeds, so failed builds never inflate the hit
			// rate exactly when requests are erroring.
			ca.mu.Unlock()
			<-e.ready
			if e.err != nil {
				return nil, e.err
			}
			ca.mu.Lock()
			ca.hits++
			ca.mu.Unlock()
			return e.cc, nil
		}
		delete(ca.entries, key)
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	ca.entries[key] = e
	ca.misses++
	ca.mu.Unlock()

	// The entry is published under lock and the deferred cleanup runs
	// even if build panics (net/http recovers handler panics): waiters
	// are released with an error and the key is freed for retry —
	// never a permanently wedged entry.
	var cc *CompiledCircuit
	var err error
	returned := false
	defer func() {
		if !returned {
			err = fmt.Errorf("engine: cache build for %q panicked", key)
		}
		ca.mu.Lock()
		e.cc, e.err = cc, err
		if err != nil {
			if ca.entries[key] == e {
				delete(ca.entries, key)
			}
		} else {
			e.weight = cc.Weight()
			e.elem = ca.lru.PushFront(e)
			ca.used += e.weight
			ca.evictLocked(e)
		}
		close(e.ready)
		ca.mu.Unlock()
	}()
	cc, err = ca.buildOrLoad(key, build)
	returned = true
	if err == nil && cc == nil {
		err = fmt.Errorf("engine: cache build for %q returned no circuit", key)
	}
	return cc, err
}

// buildOrLoad tries the persistent artifact store before running the
// build, and persists a successful build. Artifact failures are
// counted by the store and degrade to a plain build; the save is
// synchronous so that by the time a caller observes its result, the
// warm artifact exists (tests and operators can rely on it).
func (ca *Cache) buildOrLoad(key string, build func() (*CompiledCircuit, error)) (*CompiledCircuit, error) {
	if ca.artifacts != nil {
		if cc, ok := ca.artifacts.Load(key); ok {
			return cc, nil
		}
	}
	cc, err := build()
	if err == nil && cc != nil && ca.artifacts != nil {
		ca.artifacts.Save(key, cc)
	}
	return cc, err
}

// evictLocked drops least-recently-used entries until the cache fits
// its budget, never evicting keep (the entry just inserted: an
// over-budget circuit is admitted alone rather than thrashing).
func (ca *Cache) evictLocked(keep *cacheEntry) {
	for ca.used > ca.budget {
		back := ca.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*cacheEntry)
		if victim == keep {
			return
		}
		ca.lru.Remove(back)
		victim.elem = nil
		ca.used -= victim.weight
		if ca.entries[victim.key] == victim {
			delete(ca.entries, victim.key)
		}
		ca.evictions++
	}
}

// Stats snapshots the counters.
func (ca *Cache) Stats() CacheStats {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return CacheStats{
		Hits:      ca.hits,
		Misses:    ca.misses,
		Evictions: ca.evictions,
		Entries:   ca.lru.Len(),
		Weight:    ca.used,
		Budget:    ca.budget,
	}
}
