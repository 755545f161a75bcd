// Package sched is the engine's one task runner and the only code under
// internal/ that starts goroutines (the gosafe analyzer enforces it).
// Ordered runs an indexed task stream under the contract every parallel
// loop's answers rest on, so the schedule never shows in a result or an
// error: spark stages, vector morsels and segment ingest run on it. Go
// starts only the segment store's background rebuild. Both contain
// panics: a panic becomes a *PanicError for the caller, never a crashed
// process.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rumble/internal/profile"
)

// PanicError is a recovered panic: the one error an internal bug surfaces
// as. Stack is the stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("internal error: panic: %v", e.Value) }

// Safely runs fn and returns its error; a panic in fn comes back as a
// *PanicError instead of unwinding further.
func Safely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Go runs fn on a new goroutine under Safely and hands its outcome to done
// on that goroutine; wg counts the goroutine until done has returned.
func Go(wg *sync.WaitGroup, fn func() error, done func(error)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		done(Safely(fn))
	}()
}

// errQuit ends a producer whose remaining tasks can no longer be merged.
// What the producer returns after it is never observed.
var errQuit = errors.New("sched: quit")

type task[T any] struct {
	idx int
	v   T
}

type outcome[R any] struct {
	idx int
	r   R
	err error
}

// Ordered runs the tasks produce emits on up to workers workers and merges
// their results in emit order. The n-th task emitted has index n; produce
// must stop when emit returns an error. work(w, t) runs t on worker w in
// [0, workers), so per-worker state can be indexed by w. merge runs on the
// caller's goroutine in index order up to the first failure; stop=true
// ends the run early, successfully.
//
// Tasks are claimed in index order and no task past a known failure
// starts, so the error returned is the lowest-indexed task's — its own, a
// panic, or ctx's (polled before each task; nil means none) — else
// produce's, placed after its last task. At most window (>= 1) tasks are
// emitted and not yet merged, so a slow task cannot let the source run
// ahead. prof, if non-nil, receives the workers' busy and wait time.
//
// With workers <= 1 everything runs inline on the caller's goroutine.
// Otherwise produce runs beside the workers, and all of them are joined
// before Ordered returns; each call owns its goroutines, so a run nested
// inside another run's task cannot deadlock.
func Ordered[T, R any](ctx context.Context, workers, window int, produce func(emit func(T) error) error,
	work func(w int, t T) (R, error), merge func(idx int, r R) (stop bool, err error), prof *profile.Profile) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 {
		return inline(ctx, produce, work, merge)
	}
	var (
		queue   = make(chan task[T], workers)   // one claim ready per worker
		results = make(chan outcome[R], window) // never blocks: window bounds the tasks in flight
		ended   = make(chan outcome[R], 1)      // the producer's: idx = tasks emitted
		slots   = make(chan struct{}, window)   // one per task emitted and not yet merged
		quit    = make(chan struct{})
		failed  atomic.Int64 // lowest failing index so far; -1 once the run is over
		wg      sync.WaitGroup
		emitted int
	)
	failed.Store(math.MaxInt64)

	Go(&wg, func() error {
		return produce(func(v T) error {
			if int64(emitted) > failed.Load() {
				return errQuit
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			select {
			case slots <- struct{}{}:
			case <-quit:
				return errQuit
			}
			queue <- task[T]{emitted, v} // workers always drain the queue
			emitted++
			return nil
		})
	}, func(err error) {
		ended <- outcome[R]{idx: emitted, err: err}
		close(queue)
	})

	for w := 0; w < workers; w++ {
		Go(&wg, func() error {
			last := time.Now()
			for t := range queue {
				if int64(t.idx) > failed.Load() {
					continue // never merged
				}
				start := time.Now()
				prof.AddWait(start.Sub(last))
				o := outcome[R]{idx: t.idx, err: ctx.Err()}
				if o.err == nil {
					o.err = Safely(func() (err error) {
						o.r, err = work(w, t.v)
						return err
					})
				}
				if o.err != nil {
					// Lower failed to t.idx unless a lower task failed first.
					for cur := failed.Load(); int64(t.idx) < cur && !failed.CompareAndSwap(cur, int64(t.idx)); cur = failed.Load() {
					}
				}
				last = time.Now()
				prof.AddBusy(last.Sub(start))
				results <- o
			}
			return nil
		}, func(error) {})
	}

	finish := func(err error) error {
		failed.Store(-1) // skip whatever is still queued
		close(quit)
		wg.Wait()
		return err
	}
	// Every task below the lowest failure runs, so the merge reaches each
	// index in turn until it meets the failure or the producer's count.
	ring := make([]*outcome[R], window)
	end := ended
	next, total := 0, -1
	var produceErr error
	for total < 0 || next < total {
		o := ring[next%window]
		if o == nil {
			select {
			case o := <-results:
				ring[o.idx%window] = &o
			case o := <-end:
				total, produceErr, end = o.idx, o.err, nil
			}
			continue
		}
		ring[next%window] = nil
		if o.err != nil {
			return finish(o.err)
		}
		var stop bool
		err := Safely(func() (err error) {
			stop, err = merge(o.idx, o.r)
			return err
		})
		if err != nil || stop {
			return finish(err)
		}
		<-slots // the task left the window; the producer may emit another
		next++
	}
	wg.Wait()
	return produceErr
}

// inline is Ordered on one worker: each task runs and merges on the
// caller's goroutine as the producer emits it.
func inline[T, R any](ctx context.Context, produce func(emit func(T) error) error,
	work func(w int, t T) (R, error), merge func(idx int, r R) (stop bool, err error)) error {
	idx, stopped := 0, false
	var failed error // ctx's, work's or merge's; produce stops on it
	err := Safely(func() error {
		return produce(func(v T) error {
			if failed = ctx.Err(); failed == nil {
				var r R
				if r, failed = work(0, v); failed == nil {
					stopped, failed = merge(idx, r)
				}
			}
			idx++
			if failed == nil && stopped {
				return errQuit
			}
			return failed
		})
	})
	if failed != nil || stopped {
		return failed
	}
	return err
}
