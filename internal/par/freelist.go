package par

import (
	"runtime"
	"sync"
)

// FreeList recycles per-call scratch of type T across calls: Get hands
// out a value an earlier call gave back, or a new zero value when every
// recycled one is in use, and Put gives it back. It never holds more
// values than calls have held at once, and it keeps each as large as
// its calls grew it. Values are not cleared, so it suits only scratch
// that every call overwrites before reading.
//
// Like a sync.Pool, a list gives its values up to the garbage
// collector once a whole collection cycle passes without a Get, so
// scratch that only a cold path uses does not stay resident on a warm
// one. Unlike a sync.Pool, it keeps no value per P: a caller that
// parks on a worker pool and resumes on another P would miss the value
// it gave back there and allocate another, so one caller would come to
// hold two or three.
type FreeList[T any] struct {
	mu    sync.Mutex
	free  []*T
	got   bool // a Get since the last collection
	armed bool // a collection hook is pending
}

// Get returns a recycled value, or a new one when none is free.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got = true
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	v := l.free[n-1]
	l.free = l.free[:n-1]
	return v
}

// Put gives v back for a later Get.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, v)
	if !l.armed {
		l.armed = true
		afterNextGC(l.collected)
	}
}

// collected runs after each garbage collection while the list holds
// values: it drops them if no Get came since the previous one.
func (l *FreeList[T]) collected() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.got {
		l.free = nil
		l.armed = false
		return
	}
	l.got = false
	afterNextGC(l.collected)
}

// gcHook carries a callback to the finalizer goroutine.
type gcHook struct{ fn func() }

// afterNextGC runs fn once, after the next garbage collection: nothing
// refers to the hook, so the first collection that starts after this
// call finds it unreachable and queues its finalizer.
func afterNextGC(fn func()) {
	runtime.SetFinalizer(&gcHook{fn}, func(h *gcHook) { h.fn() })
}
