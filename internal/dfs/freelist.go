package dfs

import "sync"

// FreeListMax is how many released values a FreeList keeps.
const FreeListMax = 4

// FreeList recycles values — byte buffers and readers — across calls: a
// mutex and a slice of at most FreeListMax released values, handed out last
// in, first out, so the most recently used (and still cache-warm) value goes
// first. Unlike a sync.Pool it is not emptied by a GC, so a buffer grown to
// a file's size stays grown; what it retains is bounded by FreeListMax
// times the largest value released. The zero value with New set is ready to
// use; it must not be copied after first use.
type FreeList[T any] struct {
	// New makes a value when the list is empty.
	New func() T

	mu   sync.Mutex
	free []T
}

// Get returns the most recently released value, or a fresh one from New
// when none is kept.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	return l.New()
}

// Put releases v for a later Get; it is dropped when the list already
// keeps FreeListMax values. The caller must not use v afterwards.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	if len(l.free) < FreeListMax {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}
