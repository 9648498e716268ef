package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckt"
)

// chain builds a PI -> n-NOT-gate chain ending in a PO.
func chain(name string, n int) *ckt.Circuit {
	c := ckt.New(name)
	prev := c.MustAddGate("a", ckt.Input)
	for i := 0; i < n; i++ {
		id := c.MustAddGate(fmt.Sprintf("n%d", i), ckt.Not)
		c.MustConnect(prev, id)
		prev = id
	}
	c.MarkPO(prev)
	return c
}

func TestCompileMatchesCircuitDerivations(t *testing.T) {
	c := ckt.New("mini")
	a := c.MustAddGate("a", ckt.Input)
	b := c.MustAddGate("b", ckt.Input)
	g1 := c.MustAddGate("g1", ckt.Nand)
	c.MustConnect(a, g1)
	c.MustConnect(b, g1)
	g2 := c.MustAddGate("g2", ckt.Not)
	c.MustConnect(g1, g2)
	c.MarkPO(g2)
	c.MarkPO(g1)

	cc, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder, _ := c.TopoOrder()
	if fmt.Sprint(cc.TopoOrder()) != fmt.Sprint(wantOrder) {
		t.Errorf("TopoOrder = %v, want %v", cc.TopoOrder(), wantOrder)
	}
	wantR, _ := c.ReverseTopoOrder()
	if fmt.Sprint(cc.ReverseTopoOrder()) != fmt.Sprint(wantR) {
		t.Errorf("ReverseTopoOrder = %v, want %v", cc.ReverseTopoOrder(), wantR)
	}
	if fmt.Sprint(cc.Levels()) != fmt.Sprint(c.Levels()) {
		t.Errorf("Levels = %v, want %v", cc.Levels(), c.Levels())
	}
	if fmt.Sprint(cc.DepthFromPO()) != fmt.Sprint(c.DepthFromPO()) {
		t.Errorf("DepthFromPO = %v, want %v", cc.DepthFromPO(), c.DepthFromPO())
	}
	for k, id := range c.Outputs() {
		col, ok := cc.POColumn(id)
		if !ok || col != k {
			t.Errorf("POColumn(%d) = %d,%v, want %d,true", id, col, ok, k)
		}
	}
	if _, ok := cc.POColumn(a); ok {
		t.Error("POColumn reported a column for a non-PO gate")
	}
	if got := cc.FanoutOffsets()[len(c.Gates)]; got != c.NumEdges() {
		t.Errorf("fanout arena size = %d, want %d edges", got, c.NumEdges())
	}
}

func TestCompileRejectsCombinationalCycle(t *testing.T) {
	c := ckt.New("cyc")
	c.MustAddGate("a", ckt.Input)
	x := c.MustAddGate("x", ckt.And)
	y := c.MustAddGate("y", ckt.And)
	c.MustConnect(0, x)
	c.MustConnect(y, x)
	c.MustConnect(0, y)
	c.MustConnect(x, y)
	c.MarkPO(x)
	if _, err := Compile(c); err == nil {
		t.Fatal("Compile accepted a combinational cycle")
	}
}

func TestMemoSingleflight(t *testing.T) {
	cc := MustCompile(chain("memo", 3))
	var builds atomic.Int64
	const workers = 32
	var wg sync.WaitGroup
	vals := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := cc.Memo("k", func() (any, error) {
				builds.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

func TestMemoBounded(t *testing.T) {
	cc := MustCompile(chain("bound", 3))
	for i := 0; i < 2*maxMemoEntries; i++ {
		if _, err := cc.Memo(i, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cc.memo); n > maxMemoEntries {
		t.Fatalf("memo grew to %d entries, bound is %d", n, maxMemoEntries)
	}
	// The most recent key is still memoized...
	calls := 0
	v, err := cc.Memo(2*maxMemoEntries-1, func() (any, error) { calls++; return -1, nil })
	if err != nil || calls != 0 || v != 2*maxMemoEntries-1 {
		t.Fatalf("recent key rebuilt (calls=%d, v=%v)", calls, v)
	}
	// ...while the oldest was evicted and rebuilds on demand (no
	// silent no-cache cliff: the rebuild is retained again).
	if v, err = cc.Memo(0, func() (any, error) { calls++; return 100, nil }); err != nil || v != 100 {
		t.Fatalf("evicted key did not rebuild (v=%v, err=%v)", v, err)
	}
	if calls != 1 {
		t.Fatalf("evicted key rebuilt %d times, want 1", calls)
	}
	if v, _ = cc.Memo(0, func() (any, error) { calls++; return -1, nil }); v != 100 || calls != 1 {
		t.Fatalf("rebuilt key not retained (v=%v, calls=%d)", v, calls)
	}
}

func TestMemoPanicReleasesWaiters(t *testing.T) {
	cc := MustCompile(chain("panic", 3))
	started := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the builder goroutine sees the panic
		cc.Memo("boom", func() (any, error) {
			close(started)
			<-release
			panic("builder exploded")
		})
	}()
	<-started
	go func() {
		_, err := cc.Memo("boom", func() (any, error) { return 1, nil })
		waiterDone <- err
	}()
	close(release)
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter on a panicked build got no error")
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("waiter's error %q does not name the key", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter on a panicked build blocked forever")
	}
}

func TestCachePanicReleasesWaitersAndFreesKey(t *testing.T) {
	ca := NewCache(1000)
	started := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		ca.Get("boom", func() (*CompiledCircuit, error) {
			close(started)
			<-release
			panic("builder exploded")
		})
	}()
	<-started
	go func() {
		// Almost always coalesces onto the panicking in-flight build
		// (and must then see an error, not a hang); if scheduling let
		// the cleanup win the race, it builds fresh, which is also
		// legal — the assertions below hold for both interleavings.
		_, err := ca.Get("boom", func() (*CompiledCircuit, error) {
			return Compile(chain("boom", 4))
		})
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter on a panicked build blocked forever")
	}
	// The key must be retryable after the panic.
	cc, err := ca.Get("boom", func() (*CompiledCircuit, error) {
		return Compile(chain("boom", 4))
	})
	if err != nil || cc == nil {
		t.Fatalf("key not retryable after panicked build: %v", err)
	}
}

func TestCacheNilBuildIsError(t *testing.T) {
	ca := NewCache(100)
	if _, err := ca.Get("nil", func() (*CompiledCircuit, error) { return nil, nil }); err == nil {
		t.Fatal("nil circuit with nil error was accepted")
	}
	// And the key stays retryable.
	if _, err := ca.Get("nil", func() (*CompiledCircuit, error) {
		return Compile(chain("nil", 2))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheLRUEvictionAndCounters(t *testing.T) {
	// Three 11-record circuits against a budget of 25: two fit, the
	// third evicts the least recently used.
	ca := NewCache(25)
	get := func(key string) *CompiledCircuit {
		t.Helper()
		cc, err := ca.Get(key, func() (*CompiledCircuit, error) {
			return Compile(chain(key, 10))
		})
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	a1 := get("a")
	get("b")
	if a2 := get("a"); a2 != a1 {
		t.Fatal("warm Get returned a different handle")
	}
	st := ca.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("stats after warm hit: %+v", st)
	}
	get("c") // budget 25 < 33: evicts "b" (LRU; "a" was touched)
	if st = ca.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if a3 := get("a"); a3 != a1 {
		t.Fatal("eviction dropped the recently-used entry")
	}
	before := ca.Stats().Misses
	get("b") // was evicted: must rebuild
	if ca.Stats().Misses != before+1 {
		t.Fatal("evicted entry did not count a miss on return")
	}
}

// heavyValue is a fake memoized derivation with a reported weight.
type heavyValue struct{ w int64 }

func (h heavyValue) MemoWeight() int64 { return h.w }

// TestCacheReweighsMemoizedDerivations: memoized values that report a
// MemoWeight grow the owning entry's cache weight, and the growth is
// charged against the budget on the next access (evicting others).
func TestCacheReweighsMemoizedDerivations(t *testing.T) {
	ca := NewCache(40) // two 11-record chains fit; memo growth must evict
	get := func(key string) *CompiledCircuit {
		t.Helper()
		cc, err := ca.Get(key, func() (*CompiledCircuit, error) {
			return Compile(chain(key, 10))
		})
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	a := get("a")
	get("b")
	if st := ca.Stats(); st.Entries != 2 {
		t.Fatalf("both entries should fit pre-memo: %+v", st)
	}
	// Simulate a request memoizing a heavy derivation on "a" (e.g. a
	// sensitization result), then touching "a" again.
	if _, err := a.Memo("sens", func() (any, error) { return heavyValue{25}, nil }); err != nil {
		t.Fatal(err)
	}
	if w := a.Weight(); w != 11+25 {
		t.Fatalf("Weight = %d, want 36 (11 gates + 25 memo)", w)
	}
	get("a")
	st := ca.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("memo growth did not evict the cold entry: %+v", st)
	}
	if st.Weight != 36 {
		t.Fatalf("cache weight = %d, want 36 after re-weigh", st.Weight)
	}
}

func TestCacheOversizedEntryAdmittedAlone(t *testing.T) {
	ca := NewCache(5)
	cc, err := ca.Get("big", func() (*CompiledCircuit, error) {
		return Compile(chain("big", 20))
	})
	if err != nil {
		t.Fatal(err)
	}
	cc2, err := ca.Get("big", func() (*CompiledCircuit, error) {
		t.Error("oversized entry was not retained")
		return Compile(chain("big", 20))
	})
	if err != nil || cc2 != cc {
		t.Fatalf("oversized entry not served from cache (err=%v)", err)
	}
}

func TestCacheSingleflightAndErrorNotCached(t *testing.T) {
	ca := NewCache(1000)
	var builds atomic.Int64
	const n = 16
	var wg sync.WaitGroup
	ccs := make([]*CompiledCircuit, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc, err := ca.Get("k", func() (*CompiledCircuit, error) {
				builds.Add(1)
				return Compile(chain("k", 4))
			})
			if err != nil {
				t.Error(err)
			}
			ccs[i] = cc
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("singleflight ran %d builds, want 1", builds.Load())
	}
	for i := 1; i < n; i++ {
		if ccs[i] != ccs[0] {
			t.Fatal("coalesced callers got different handles")
		}
	}

	fails := 0
	for i := 0; i < 2; i++ {
		if _, err := ca.Get("bad", func() (*CompiledCircuit, error) {
			fails++
			return nil, fmt.Errorf("boom")
		}); err == nil {
			t.Fatal("failed build returned no error")
		}
	}
	if fails != 2 {
		t.Fatalf("failed build ran %d times, want 2 (errors must not be cached)", fails)
	}
}
