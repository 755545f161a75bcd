package spark

import (
	"fmt"
	"sync"
	"time"
)

// RDD is a lazy, partitioned dataset of T values. A transformation returns
// a new RDD whose partitions pipeline over the parent's without
// materializing intermediate results; an action (Collect, Count, ...) runs
// the pipeline on the executor pool.
//
// Compute functions are push-based: computing partition p calls yield once
// per element. A non-nil error from yield aborts the partition (used by
// Take to stop early).
type RDD[T any] struct {
	ctx     *Context
	parts   int
	name    string
	compute func(p int, yield func(T) error) error
}

// errStopEarly signals deliberate early termination of a partition scan.
var errStopEarly = fmt.Errorf("spark: stop early")

// NewRDD constructs an RDD from a raw compute function. Library code and
// input sources use it; query-level code should prefer the transformations.
func NewRDD[T any](ctx *Context, parts int, name string, compute func(p int, yield func(T) error) error) *RDD[T] {
	if parts < 0 {
		parts = 0
	}
	return &RDD[T]{ctx: ctx, parts: parts, name: name, compute: compute}
}

// Context returns the owning context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// Name returns the debug name of the RDD.
func (r *RDD[T]) Name() string { return r.name }

// Parallelize distributes data over parts partitions (parts <= 0 uses the
// context default). It mirrors Spark's parallelize and backs the JSONiq
// parallelize() function.
func Parallelize[T any](ctx *Context, data []T, parts int) *RDD[T] {
	if parts <= 0 {
		parts = ctx.conf.Parallelism
	}
	if parts > len(data) && len(data) > 0 {
		parts = len(data)
	}
	if len(data) == 0 {
		parts = 1
	}
	n := len(data)
	return NewRDD(ctx, parts, "parallelize", func(p int, yield func(T) error) error {
		lo, hi := sliceRange(n, parts, p)
		//rumble:ctxpoll-ok source scan over an in-memory slice; engine pipelines wrap the sink in WithCancel, whose yield error aborts this loop
		for _, v := range data[lo:hi] {
			if err := yield(v); err != nil {
				return err
			}
		}
		return nil
	})
}

// sliceRange splits n elements into parts contiguous ranges and returns the
// bounds of range p.
func sliceRange(n, parts, p int) (lo, hi int) {
	q, rem := n/parts, n%parts
	lo = p*q + min(p, rem)
	hi = lo + q
	if p < rem {
		hi++
	}
	return lo, hi
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return NewRDD(r.ctx, r.parts, "map("+r.name+")", func(p int, yield func(U) error) error {
		return r.compute(p, func(v T) error { return yield(f(v)) })
	})
}

// MapE is Map with an error-returning function; an error aborts the job.
func MapE[T, U any](r *RDD[T], f func(T) (U, error)) *RDD[U] {
	return NewRDD(r.ctx, r.parts, "map("+r.name+")", func(p int, yield func(U) error) error {
		return r.compute(p, func(v T) error {
			u, err := f(v)
			if err != nil {
				return err
			}
			return yield(u)
		})
	})
}

// Filter keeps the elements for which pred returns true.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return NewRDD(r.ctx, r.parts, "filter("+r.name+")", func(p int, yield func(T) error) error {
		return r.compute(p, func(v T) error {
			if pred(v) {
				return yield(v)
			}
			return nil
		})
	})
}

// FilterE is Filter with an error-returning predicate.
func FilterE[T any](r *RDD[T], pred func(T) (bool, error)) *RDD[T] {
	return NewRDD(r.ctx, r.parts, "filter("+r.name+")", func(p int, yield func(T) error) error {
		return r.compute(p, func(v T) error {
			ok, err := pred(v)
			if err != nil {
				return err
			}
			if ok {
				return yield(v)
			}
			return nil
		})
	})
}

// FlatMap applies f to every element and flattens the results.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	return NewRDD(r.ctx, r.parts, "flatMap("+r.name+")", func(p int, yield func(U) error) error {
		return r.compute(p, func(v T) error {
			for _, u := range f(v) {
				if err := yield(u); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// MapPartitions runs f once per computation of each partition, like
// Spark's mapPartitions: each streams the partition's elements to the
// function it is given, and f pushes its results to yield. State f makes
// before calling each — a per-task scratch buffer or binding scope — lives
// for that one partition task and is never shared with another.
func MapPartitions[T, U any](r *RDD[T], f func(each func(func(T) error) error, yield func(U) error) error) *RDD[U] {
	return NewRDD(r.ctx, r.parts, "mapPartitions("+r.name+")", func(p int, yield func(U) error) error {
		return f(func(g func(T) error) error { return r.compute(p, g) }, yield)
	})
}

// Union concatenates two RDDs (partitions of a followed by partitions of b).
func Union[T any](a, b *RDD[T]) *RDD[T] {
	return NewRDD(a.ctx, a.parts+b.parts, "union", func(p int, yield func(T) error) error {
		if p < a.parts {
			return a.compute(p, yield)
		}
		return b.compute(p-a.parts, yield)
	})
}

// Cache materializes the RDD on first action and serves subsequent
// computations from memory, like Spark's cache()/persist(MEMORY_ONLY).
func Cache[T any](r *RDD[T]) *RDD[T] {
	var (
		once sync.Once
		data [][]T
		err  error
	)
	materialize := func() {
		data = make([][]T, r.parts)
		err = r.ctx.runStage(r.parts, func(p int) error {
			var part []T
			e := r.compute(p, func(v T) error {
				part = append(part, v)
				return nil
			})
			data[p] = part
			return e
		})
	}
	return NewRDD(r.ctx, r.parts, "cache("+r.name+")", func(p int, yield func(T) error) error {
		once.Do(materialize)
		if err != nil {
			return err
		}
		for _, v := range data[p] {
			if e := yield(v); e != nil {
				return e
			}
		}
		return nil
	})
}

// Scan streams every element to yield on the calling goroutine, partitions
// in order, without materializing and without using the executor pool. It
// is the driver-side local iterator API over a cluster-resident dataset
// (e.g. a variable bound to an RDD consumed by a local expression).
func (r *RDD[T]) Scan(yield func(T) error) error {
	for p := 0; p < r.parts; p++ {
		if err := r.compute(p, yield); err != nil {
			return err
		}
	}
	return nil
}

// cancelCheckStride bounds how many elements flow between two cooperative
// cancellation checks inside a partition task.
const cancelCheckStride = 64

// WithCancel returns an RDD that polls check cooperatively while partition
// tasks run: once before each partition starts and every cancelCheckStride
// elements after that. A non-nil result from check aborts the job with that
// error, so a caller's deadline or cancellation propagates into running
// task loops instead of waiting for the stage to drain. A nil check returns
// r unchanged.
func WithCancel[T any](r *RDD[T], check func() error) *RDD[T] {
	if check == nil {
		return r
	}
	return NewRDD(r.ctx, r.parts, "cancellable("+r.name+")", func(p int, yield func(T) error) error {
		if err := check(); err != nil {
			return err
		}
		n := 0
		return r.compute(p, func(v T) error {
			n++
			if n%cancelCheckStride == 0 {
				if err := check(); err != nil {
					return err
				}
			}
			return yield(v)
		})
	})
}

// Observe returns an RDD that reports each partition's element count and
// task wall time to rec when the partition task finishes (successfully or
// not). rec is called from executor goroutines, so it must be safe for
// concurrent use — the profiling counters it feeds are atomics. A nil rec
// returns r unchanged, keeping the profiling-off path allocation-free.
func Observe[T any](r *RDD[T], rec func(rows int64, wall time.Duration)) *RDD[T] {
	if rec == nil {
		return r
	}
	return NewRDD(r.ctx, r.parts, "observed("+r.name+")", func(p int, yield func(T) error) error {
		start := time.Now()
		var n int64
		err := r.compute(p, func(v T) error {
			n++
			return yield(v)
		})
		rec(n, time.Since(start))
		return err
	})
}

// Collect materializes every element on the driver, partition order
// preserved. It fails with ErrResultTooLarge when MaxResultItems is set and
// exceeded.
func Collect[T any](r *RDD[T]) ([]T, error) {
	parts := make([][]T, r.parts)
	limit := r.ctx.conf.MaxResultItems
	var total int64
	var mu sync.Mutex
	err := r.ctx.runStage(r.parts, func(p int) error {
		var buf []T
		if err := r.compute(p, func(v T) error {
			buf = append(buf, v)
			return nil
		}); err != nil {
			return err
		}
		mu.Lock()
		total += int64(len(buf))
		over := limit > 0 && total > int64(limit)
		mu.Unlock()
		if over {
			return ErrResultTooLarge
		}
		parts[p] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

// Count returns the number of elements.
func Count[T any](r *RDD[T]) (int64, error) {
	counts := make([]int64, r.parts)
	err := r.ctx.runStage(r.parts, func(p int) error {
		var n int64
		if err := r.compute(p, func(T) error { n++; return nil }); err != nil {
			return err
		}
		counts[p] = n
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// Take returns the first n elements in partition order, scanning partitions
// sequentially and stopping early, like Spark's take().
func Take[T any](r *RDD[T], n int) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, 0, n)
	for p := 0; p < r.parts && len(out) < n; p++ {
		err := r.ctx.runTask(p, func(p int) error {
			return r.compute(p, func(v T) error {
				out = append(out, v)
				if len(out) >= n {
					return errStopEarly
				}
				return nil
			})
		})
		if err != nil && err != errStopEarly {
			return nil, err
		}
	}
	return out, nil
}

// Aggregate folds each partition into an accumulator of its own (zero(),
// then seq per element) and combines the partition accumulators in
// partition order, like Spark's aggregate(): no value per element.
func Aggregate[T, A any](r *RDD[T], zero func() A, seq func(A, T) A, comb func(A, A) A) (A, error) {
	partials := make([]A, r.parts)
	err := r.ctx.runStage(r.parts, func(p int) error {
		acc := zero()
		e := r.compute(p, func(v T) error {
			acc = seq(acc, v)
			return nil
		})
		partials[p] = acc
		return e
	})
	acc := zero()
	if err != nil {
		return acc, err
	}
	for _, pv := range partials {
		acc = comb(acc, pv)
	}
	return acc, nil
}

// Reduce combines all elements with f. It returns ok=false on an empty RDD.
func Reduce[T any](r *RDD[T], f func(T, T) T) (zero T, ok bool, err error) {
	fold := func(acc *T, v T) *T {
		if acc == nil {
			vv := v
			return &vv
		}
		*acc = f(*acc, v)
		return acc
	}
	acc, err := Aggregate(r, func() *T { return nil }, fold, func(a, b *T) *T {
		if b == nil {
			return a
		}
		return fold(a, *b)
	})
	if err != nil || acc == nil {
		return zero, false, err
	}
	return *acc, true, nil
}

// Sink receives one partition's elements during ForeachPartitionSink.
type Sink[T any] struct {
	Write func(T) error
	Close func() error
}

// ForeachPartitionSink opens one sink per partition (on the executor), and
// streams the partition's elements into it — the saveAsTextFile pattern:
// output flows straight from the pipeline to storage without driver-side
// materialization.
func ForeachPartitionSink[T any](r *RDD[T], open func(p int) (Sink[T], error)) error {
	return r.ctx.runStage(r.parts, func(p int) error {
		sink, err := open(p)
		if err != nil {
			return err
		}
		if err := r.compute(p, sink.Write); err != nil {
			sink.Close()
			return err
		}
		return sink.Close()
	})
}
