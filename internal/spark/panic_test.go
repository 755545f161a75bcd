package spark

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// noLeaks fails the test if goroutines it started outlive it.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the test, %d after:\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestStageContainsPanics: a panicking Map closure fails only its job, with
// the runner's internal error, at every executor count. No goroutine
// outlives the job, and the same Context runs the next job correctly.
func TestStageContainsPanics(t *testing.T) {
	noLeaks(t)
	for _, executors := range []int{1, 2, 8} {
		ctx := NewContext(Config{Parallelism: 8, Executors: executors})
		data := Parallelize(ctx, intsUpTo(100), 8)
		_, err := Count(Map(data, func(v int) int {
			if v == 42 {
				panic("boom")
			}
			return v
		}))
		if err == nil || !strings.Contains(err.Error(), "internal error: panic: boom") {
			t.Fatalf("executors=%d: err = %v, want the contained panic", executors, err)
		}
		sum, err := Aggregate(Map(data, func(v int) int { return v }),
			func() int { return 0 }, func(a, v int) int { return a + v }, func(a, b int) int { return a + b })
		if err != nil || sum != 99*100/2 {
			t.Fatalf("executors=%d: next job: sum=%d err=%v, want %d", executors, sum, err, 99*100/2)
		}
	}
}
