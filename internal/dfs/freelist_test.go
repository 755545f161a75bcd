package dfs

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeList pins the free list's contract: last in, first out; at most
// FreeListMax values kept, the rest dropped; a kept value survives a GC;
// and concurrent Get/Put never hands one value to two holders (run under
// -race, a shared value is a reported race on its contents).
func TestFreeList(t *testing.T) {
	made := 0
	l := FreeList[*int]{New: func() *int { made++; return new(int) }}
	vals := make([]*int, FreeListMax+2)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
		l.Put(vals[i])
	}
	for i := FreeListMax - 1; i >= 0; i-- {
		if got := l.Get(); got != vals[i] {
			t.Fatalf("Get returned value %d, want %d (last kept in, first out)", *got, i)
		}
	}
	if made != 0 {
		t.Fatalf("New called %d times while values were kept", made)
	}
	if l.Get(); made != 1 {
		t.Fatalf("Get on an emptied list called New %d times, want 1: a value past FreeListMax was kept", made)
	}

	l.Put(vals[0])
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != vals[0] {
		t.Fatal("a value released before a GC did not come back after it")
	}

	shared := FreeList[*int]{New: func() *int { return new(int) }}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := shared.Get()
				*v = w
				if *v != w {
					t.Errorf("value changed under its holder: %d, want %d", *v, w)
				}
				shared.Put(v)
			}
		}()
	}
	wg.Wait()
}
