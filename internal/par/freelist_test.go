package par

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFreeList: a value given back is the next one handed out, a Get
// with none free allocates a fresh zero value, and concurrent callers
// never share one.
func TestFreeList(t *testing.T) {
	var l FreeList[[]int]
	a, b := l.Get(), l.Get()
	if a == b || *a != nil || *b != nil {
		t.Fatalf("two Gets on an empty list: %p %v, %p %v", a, *a, b, *b)
	}
	*a = append(*a, 1)
	l.Put(a)
	if got := l.Get(); got != a || len(*got) != 1 {
		t.Fatalf("Get after Put = %p %v, want %p [1]", got, *got, a)
	}

	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v := l.Get()
				*v = append((*v)[:0], g)
				l.Put(v)
			}
		}(g)
	}
	wg.Wait()
	l.mu.Lock()
	n := len(l.free)
	l.mu.Unlock()
	if n > callers {
		t.Fatalf("free list holds %d values after %d callers", n, callers)
	}
}

// TestFreeListDropsIdleValues: a list gives its values up once a whole
// collection cycle passes without a Get, and a later Get allocates.
func TestFreeListDropsIdleValues(t *testing.T) {
	var l FreeList[int]
	l.Put(l.Get())
	free := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.free)
	}
	// The hooks run on the finalizer goroutine after each collection.
	deadline := time.Now().Add(10 * time.Second)
	for free() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("an idle free list kept its value through repeated collections")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if v := l.Get(); *v != 0 {
		t.Fatalf("Get after the drop = %d, want a fresh zero value", *v)
	}
}
