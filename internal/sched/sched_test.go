package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumble/internal/profile"
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

// upTo emits the ints [0, n), or forever when n < 0.
func upTo(n int) func(emit func(int) error) error {
	return func(emit func(int) error) error {
		for i := 0; n < 0 || i < n; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
}

func noMerge(int, int) (bool, error) { return false, nil }

var workerCounts = []int{1, 2, 8}

func TestOrderedMergesInIndexOrder(t *testing.T) {
	noLeaks(t)
	for _, workers := range workerCounts {
		const n = 300
		seen := make([]atomic.Int32, workers)
		next := 0
		err := Ordered(context.Background(), workers, 4*workers, upTo(n),
			func(w int, v int) (int, error) {
				seen[w].Add(1)
				time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
				return 2 * v, nil
			},
			func(idx, r int) (bool, error) {
				if idx != next || r != 2*idx {
					return false, fmt.Errorf("merged task %d (result %d) when task %d was due", idx, r, next)
				}
				next++
				return false, nil
			}, nil)
		if err != nil || next != n {
			t.Fatalf("workers=%d: err=%v after %d merges, want %d", workers, err, next, n)
		}
		total := 0
		for w := range seen {
			total += int(seen[w].Load())
		}
		if total != n {
			t.Fatalf("workers=%d: worker indexes counted %d tasks, want %d", workers, total, n)
		}
	}
}

// TestOrderedLowestFailureWins injects failures at tasks 5 and 2, with 2
// failing last: 2's error is the one reported, at every worker count.
func TestOrderedLowestFailureWins(t *testing.T) {
	noLeaks(t)
	for _, workers := range workerCounts {
		for run := 0; run < 20; run++ {
			five := make(chan struct{})
			err := Ordered(context.Background(), workers, 4*workers, upTo(50),
				func(_ int, v int) (int, error) {
					switch v {
					case 2:
						select {
						case <-five:
						case <-time.After(20 * time.Millisecond): // one worker: 5 never runs first
						}
						return 0, errors.New("task 2 failed")
					case 5:
						close(five)
						return 0, errors.New("task 5 failed")
					}
					return v, nil
				}, noMerge, nil)
			if err == nil || err.Error() != "task 2 failed" {
				t.Fatalf("workers=%d run %d: err = %v, want task 2's", workers, run, err)
			}
		}
	}
}

// TestOrderedSkipsPastFailure: once task 3 has failed, no higher task
// starts. One worker is held on task 0 until well after the failure, so the
// other claims 1, 2 and 3 in turn; task 3 fails only once 4 and 5 are
// already queued, so they are claimed after the failure is known.
func TestOrderedSkipsPastFailure(t *testing.T) {
	noLeaks(t)
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var started []int
		queued, three := make(chan struct{}), make(chan struct{})
		err := Ordered(context.Background(), workers, 4*workers,
			func(emit func(int) error) error {
				for i := 0; ; i++ {
					if err := emit(i); err != nil {
						return err
					}
					if i == 5 {
						close(queued)
					}
				}
			},
			func(_ int, v int) (int, error) {
				mu.Lock()
				started = append(started, v)
				mu.Unlock()
				switch v {
				case 0:
					select {
					case <-three:
						time.Sleep(20 * time.Millisecond)
					case <-time.After(20 * time.Millisecond): // one worker: 3 runs after 0
					}
				case 3:
					select {
					case <-queued:
					case <-time.After(20 * time.Millisecond): // one worker: 5 runs after 3
					}
					close(three)
					return 0, errors.New("task 3 failed")
				}
				return v, nil
			}, noMerge, nil)
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3's", workers, err)
		}
		sort.Ints(started)
		if fmt.Sprint(started) != "[0 1 2 3]" {
			t.Fatalf("workers=%d: tasks %v started, want [0 1 2 3]", workers, started)
		}
	}
}

// TestOrderedBoundsInFlight: with a slow merge, the producer runs exactly
// window tasks ahead of it and no further, at windows below, at and above
// the worker count.
func TestOrderedBoundsInFlight(t *testing.T) {
	noLeaks(t)
	for _, workers := range workerCounts {
		for _, window := range []int{1, workers, 4 * workers} {
			var emitted atomic.Int64
			peak := int64(0)
			err := Ordered(context.Background(), workers, window,
				func(emit func(int) error) error {
					for i := 0; i < 60; i++ {
						if err := emit(i); err != nil {
							return err
						}
						emitted.Add(1)
					}
					return nil
				},
				func(_ int, v int) (int, error) { return v, nil },
				func(idx, _ int) (bool, error) {
					// Tasks idx.. are emitted and not yet merged; the pause
					// lets the producer fill whatever window it is allowed.
					time.Sleep(2 * time.Millisecond)
					peak = max(peak, emitted.Load()-int64(idx))
					return false, nil
				}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(window)
			if workers == 1 {
				want = 0 // inline: each task merges before the next is emitted
			}
			if peak != want {
				t.Fatalf("workers=%d window=%d: peak in flight %d, want %d", workers, window, peak, want)
			}
		}
	}
}

func TestOrderedStopJoins(t *testing.T) {
	noLeaks(t)
	for _, workers := range workerCounts {
		merged := 0
		err := Ordered(context.Background(), workers, 4*workers, upTo(-1),
			func(_ int, v int) (int, error) { return v, nil },
			func(idx, _ int) (bool, error) {
				merged++
				return idx == 10, nil
			}, nil)
		if err != nil || merged != 11 {
			t.Fatalf("workers=%d: err=%v after %d merges, want nil after 11", workers, err, merged)
		}
	}
}

func TestOrderedCancelJoins(t *testing.T) {
	noLeaks(t)
	for _, workers := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		err := Ordered(ctx, workers, 4*workers, upTo(-1),
			func(_ int, v int) (int, error) { return v, nil },
			func(idx, _ int) (bool, error) {
				if idx == 10 {
					cancel()
				}
				return false, nil
			}, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestOrderedInlineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	check := func(where string) {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("%s: %d goroutines, want %d", where, n, before)
		}
	}
	err := Ordered(context.Background(), 1, 4,
		func(emit func(int) error) error {
			check("produce")
			return upTo(5)(emit)
		},
		func(_ int, v int) (int, error) {
			check("work")
			return v, nil
		},
		func(int, int) (bool, error) {
			check("merge")
			return false, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderedContainsPanics: a panic in a task, in the producer or in the
// merge fails the run with one *PanicError and leaves no goroutine behind.
func TestOrderedContainsPanics(t *testing.T) {
	noLeaks(t)
	boom := func(site string, v int) {
		if v == 3 {
			panic("boom in " + site)
		}
	}
	for _, workers := range workerCounts {
		for _, site := range []string{"work", "produce", "merge"} {
			err := Ordered(context.Background(), workers, 4*workers,
				func(emit func(int) error) error {
					for i := 0; i < 20; i++ {
						if site == "produce" {
							boom(site, i)
						}
						if err := emit(i); err != nil {
							return err
						}
					}
					return nil
				},
				func(_ int, v int) (int, error) {
					if site == "work" {
						boom(site, v)
					}
					return v, nil
				},
				func(idx, _ int) (bool, error) {
					if site == "merge" {
						boom(site, idx)
					}
					return false, nil
				}, nil)
			var pe *PanicError
			if !errors.As(err, &pe) || err.Error() != "internal error: panic: boom in "+site || len(pe.Stack) == 0 {
				t.Fatalf("workers=%d %s: err = %v, want a *PanicError with its stack", workers, site, err)
			}
		}
	}
}

func TestOrderedMetersWorkers(t *testing.T) {
	prof := profile.New(nil)
	err := Ordered(context.Background(), 2, 8, upTo(20),
		func(_ int, v int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return v, nil
		}, noMerge, prof)
	if err != nil {
		t.Fatal(err)
	}
	if busy := time.Duration(prof.BusyNS.Load()); busy < 20*100*time.Microsecond {
		t.Fatalf("busy = %v, want at least the 2ms the tasks slept", busy)
	}
}

func TestGoContainsPanics(t *testing.T) {
	var wg sync.WaitGroup
	var got error
	Go(&wg, func() error { panic("boom") }, func(err error) { got = err })
	wg.Wait()
	if got == nil || got.Error() != "internal error: panic: boom" ||
		!strings.Contains(string(got.(*PanicError).Stack), "sched_test.go") {
		t.Fatalf("Go: err = %v, want a *PanicError carrying the panicking stack", got)
	}
}
