package spark

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"rumble/internal/orderby"
)

// Pair is a key-value record for the pair-RDD operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// MapToPair turns an RDD into a pair RDD, mirroring Spark's mapToPair.
func MapToPair[T any, K comparable, V any](r *RDD[T], f func(T) (K, V)) *RDD[Pair[K, V]] {
	return Map(r, func(v T) Pair[K, V] {
		k, val := f(v)
		return Pair[K, V]{Key: k, Value: val}
	})
}

// hashKey hashes an arbitrary comparable key through its string formatting
// when it is not one of the fast-path types.
func hashKey[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case string:
		// FNV-1a, inlined: hash/fnv would allocate per shuffled record. The
		// values must stay hash/fnv's — bucket placement fixes the order
		// groups are emitted in.
		h := uint64(14695981039346656037)
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * 1099511628211
		}
		return h
	case int:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	default:
		h := fnv.New64a()
		fmt.Fprintf(h, "%v", k) // k, not v: formatting v would make every key's any(k) escape
		return h.Sum64()
	}
}

// mix64 is a finalizer-style bit mixer so that consecutive integer keys
// spread over partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shuffleExchange materializes the parent pair RDD once: each map task
// buckets its partition's records by hash of key into numOut buckets, and
// the exchange keeps them where the task wrote them. A bucket is a list of
// chunks that never regrow (bucketRows), and runs holds every map task's
// chunk rows in map-partition order, so output partition b reads
// runs[0][b], runs[1][b], ... — each map task's bucket b in write order,
// the map tasks in partition order, the order concatenating the buckets
// would give — and copies nothing. Concurrent consumers share one exchange
// via sync.Once, matching Spark's write-once shuffle files.
type shuffleExchange[K comparable, V any] struct {
	once sync.Once
	err  error
	runs [][][]Pair[K, V] // [chunk row][output partition]
}

func (ex *shuffleExchange[K, V]) runOnce(r *RDD[Pair[K, V]], numOut int) {
	ex.once.Do(func() {
		rows := make([][][][]Pair[K, V], r.parts)
		err := r.ctx.runStage(r.parts, func(p int) error {
			w := bucketRows[K, V]{chunks: make([]int, numOut), n: make([]int, numOut)}
			e := r.compute(p, func(kv Pair[K, V]) error {
				w.add(int(hashKey(kv.Key)%uint64(numOut)), kv)
				return nil
			})
			rows[p] = w.rows
			return e
		})
		if err != nil {
			ex.err = err
			return
		}
		total := 0
		for _, local := range rows {
			total += len(local)
		}
		runs := make([][][]Pair[K, V], 0, total)
		var n int64
		for _, local := range rows {
			runs = append(runs, local...)
			for _, row := range local {
				for _, recs := range row {
					n += int64(len(recs))
				}
			}
		}
		ex.runs = runs
		r.ctx.metrics.ShuffleRecords.Add(n)
	})
}

// bucketRows collects one map task's records into its buckets. A bucket
// grows by chunks: a full chunk stays where it is and a new one, half as
// long as the bucket so far (at least 4), takes the next records, so
// growing copies nothing and allocates at most half again the records'
// size, plus 4. rows[i][b] is chunk i of bucket b: reading the rows in
// order, slot b of each, reads bucket b in write order.
type bucketRows[K comparable, V any] struct {
	rows   [][][]Pair[K, V]
	chunks []int // per bucket: chunks started
	n      []int // per bucket: records written
}

func (w *bucketRows[K, V]) add(b int, kv Pair[K, V]) {
	i := w.chunks[b] - 1
	if i < 0 || len(w.rows[i][b]) == cap(w.rows[i][b]) {
		i++
		if i == len(w.rows) {
			w.rows = append(w.rows, make([][]Pair[K, V], len(w.chunks)))
		}
		w.rows[i][b] = make([]Pair[K, V], 0, max(4, w.n[b]/2))
		w.chunks[b]++
	}
	w.rows[i][b] = append(w.rows[i][b], kv)
	w.n[b]++
}

// PartitionBy hash-partitions a pair RDD into Parallelism output
// partitions, as Spark's partitionBy does: output partition p yields the
// records whose key hashes to p, in map-partition order and, within a map
// partition, in the order it produced them. The records are the exchange's,
// materialized once and shared by every computation of the output; a
// consumer must not write them.
func PartitionBy[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[Pair[K, V]] {
	numOut := r.ctx.conf.Parallelism
	var ex shuffleExchange[K, V]
	return NewRDD(r.ctx, numOut, "partitionBy("+r.name+")", func(p int, yield func(Pair[K, V]) error) error {
		ex.runOnce(r, numOut)
		if ex.err != nil {
			return ex.err
		}
		for _, local := range ex.runs {
			for _, kv := range local[p] {
				if err := yield(kv); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// ReduceByKey merges the values of each key with combine, with map-side
// combining before the shuffle like Spark's reduceByKey.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], combine func(V, V) V) *RDD[Pair[K, V]] {
	numOut := r.ctx.conf.Parallelism
	// Map-side combine: collapse duplicate keys within each partition
	// before the exchange.
	pre := NewRDD(r.ctx, r.parts, "mapSideCombine("+r.name+")", func(p int, yield func(Pair[K, V]) error) error {
		acc := make(map[K]V)
		var order []K // first-seen key order keeps the emit deterministic
		if err := r.compute(p, func(kv Pair[K, V]) error {
			if cur, ok := acc[kv.Key]; ok {
				acc[kv.Key] = combine(cur, kv.Value)
			} else {
				acc[kv.Key] = kv.Value
				order = append(order, kv.Key)
			}
			return nil
		}); err != nil {
			return err
		}
		for _, k := range order {
			if err := yield(Pair[K, V]{k, acc[k]}); err != nil {
				return err
			}
		}
		return nil
	})
	var ex shuffleExchange[K, V]
	return NewRDD(r.ctx, numOut, "reduceByKey("+r.name+")", func(p int, yield func(Pair[K, V]) error) error {
		ex.runOnce(pre, numOut)
		if ex.err != nil {
			return ex.err
		}
		acc := make(map[K]V)
		var order []K // run replay order is deterministic, so this is too
		for _, local := range ex.runs {
			for _, kv := range local[p] {
				if cur, ok := acc[kv.Key]; ok {
					acc[kv.Key] = combine(cur, kv.Value)
				} else {
					acc[kv.Key] = kv.Value
					order = append(order, kv.Key)
				}
			}
		}
		for _, k := range order {
			if err := yield(Pair[K, V]{k, acc[k]}); err != nil {
				return err
			}
		}
		return nil
	})
}

// GroupByKey gathers all values of each key into a slice, emitting the
// groups in first-seen key order. Each output partition cuts its groups
// from one backing array: a first pass over the exchange runs counts each
// key's values, a second drops every value into its group's place. A
// group's slice has cap == len, so appending to it cannot overwrite the
// next group.
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[Pair[K, []V]] {
	numOut := r.ctx.conf.Parallelism
	var ex shuffleExchange[K, V]
	return NewRDD(r.ctx, numOut, "groupByKey("+r.name+")", func(p int, yield func(Pair[K, []V]) error) error {
		ex.runOnce(r, numOut)
		if ex.err != nil {
			return ex.err
		}
		ids := make(map[K]int)
		var keys []K
		var next []int // per group: its value count, then its fill position
		for _, local := range ex.runs {
			for _, kv := range local[p] {
				id, ok := ids[kv.Key]
				if !ok {
					id = len(keys)
					ids[kv.Key] = id
					keys = append(keys, kv.Key)
					next = append(next, 0)
				}
				next[id]++
			}
		}
		start := 0
		for id, c := range next {
			next[id] = start
			start += c
		}
		vals := make([]V, start)
		for _, local := range ex.runs {
			for _, kv := range local[p] {
				id := ids[kv.Key]
				vals[next[id]] = kv.Value
				next[id]++
			}
		}
		start = 0
		for id, k := range keys {
			end := next[id]
			if err := yield(Pair[K, []V]{k, vals[start:end:end]}); err != nil {
				return err
			}
			start = end
		}
		return nil
	})
}

// SortBy produces a globally sorted RDD the way Spark's sortByKey does:
// range bounds drawn from a sample of the input split the order into one
// range per output partition, and partition b emits range b in order.
// Every record is materialized once. Stage 1 collects each input partition
// into a run; the bounds come from a stride sample of the runs; each run is
// stable-sorted in place; and output partition b merges, per run, the slice
// that lies between its bounds. Of equal records the lower run's goes
// first, so the output is row for row what bucketing the records in
// partition order and stable-sorting each bucket gives. less must be a
// strict weak ordering.
//
// check, when non-nil, runs in every output partition after stage 1 and
// before the first record is emitted; a non-nil error fails the partition.
// Engine layers use it, as with JoinByKey, for validation that needs the
// whole input observed (e.g. key type compatibility).
func SortBy[T any](r *RDD[T], less func(a, b T) bool, check func() error) *RDD[T] {
	numOut := r.ctx.conf.Parallelism
	var (
		once   sync.Once
		err    error
		runs   [][]T
		bounds []T
	)
	prepare := func() {
		runs = make([][]T, r.parts)
		if err = r.ctx.runStage(r.parts, func(p int) error {
			var run []T
			e := r.compute(p, func(v T) error {
				run = append(run, v)
				return nil
			})
			runs[p] = run
			return e
		}); err != nil {
			return
		}
		// The sample must see the runs in input order: sort them only after.
		bounds = rangeBounds(runs, numOut, less)
		if err = r.ctx.runStage(r.parts, func(p int) error {
			orderby.Stable(runs[p], less)
			return nil
		}); err != nil {
			return
		}
		var n int64
		for _, run := range runs {
			n += int64(len(run))
		}
		r.ctx.metrics.ShuffleRecords.Add(n)
	}
	return NewRDD(r.ctx, numOut, "sortBy("+r.name+")", func(p int, yield func(T) error) error {
		once.Do(prepare)
		if err != nil {
			return err
		}
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		// Range p of a sorted run: the records not below bound p-1 and
		// below bound p. No bound past the last: every record is below it.
		cut := func(run []T, b int) int {
			if b < 0 {
				return 0
			}
			if b >= len(bounds) {
				return len(run)
			}
			return sort.Search(len(run), func(j int) bool { return !less(run[j], bounds[b]) })
		}
		heads := make([][]T, len(runs))
		for i, run := range runs {
			heads[i] = run[cut(run, p-1):cut(run, p)]
		}
		return orderby.Merge(heads, less, yield)
	})
}

// rangeBounds picks up to numOut-1 range bounds from a deterministic stride
// sample of the records, taken in partition order: about 1,024 records,
// every one below that. The sample holds positions, not copies.
func rangeBounds[T any](runs [][]T, numOut int, less func(a, b T) bool) []T {
	type pos struct{ run, i int32 }
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	stride := total/1024 + 1
	sample := make([]pos, 0, (total+stride-1)/stride)
	g := 0 // global index of run[0]
	for r, run := range runs {
		for i := (stride - g%stride) % stride; i < len(run); i += stride {
			sample = append(sample, pos{int32(r), int32(i)})
		}
		g += len(run)
	}
	at := func(s pos) T { return runs[s.run][s.i] }
	orderby.Stable(sample, func(a, b pos) bool { return less(at(a), at(b)) })
	bounds := make([]T, 0, numOut-1)
	for b := 1; b < numOut; b++ {
		if idx := b * len(sample) / numOut; idx < len(sample) {
			bounds = append(bounds, at(sample[idx]))
		}
	}
	return bounds
}

// ZipWithIndex pairs each element with its global 0-based index. It runs a
// counting stage first (like Spark), then streams each partition with the
// proper offset.
func ZipWithIndex[T any](r *RDD[T]) *RDD[Pair[int64, T]] {
	type state struct {
		once    sync.Once
		err     error
		offsets []int64
	}
	st := &state{}
	countStage := func() {
		st.once.Do(func() {
			counts := make([]int64, r.parts)
			st.err = r.ctx.runStage(r.parts, func(p int) error {
				var n int64
				e := r.compute(p, func(T) error { n++; return nil })
				counts[p] = n
				return e
			})
			if st.err != nil {
				return
			}
			st.offsets = make([]int64, r.parts)
			var acc int64
			for p, n := range counts {
				st.offsets[p] = acc
				acc += n
			}
		})
	}
	return NewRDD(r.ctx, r.parts, "zipWithIndex("+r.name+")", func(p int, yield func(Pair[int64, T]) error) error {
		countStage()
		if st.err != nil {
			return st.err
		}
		i := st.offsets[p]
		return r.compute(p, func(v T) error {
			kv := Pair[int64, T]{Key: i, Value: v}
			i++
			return yield(kv)
		})
	})
}

// Distinct removes duplicates using key extraction through keyFn (elements
// with equal keys are considered duplicates; the first per key survives).
func Distinct[T any, K comparable](r *RDD[T], keyFn func(T) K) *RDD[T] {
	pairs := MapToPair(r, func(v T) (K, T) { return keyFn(v), v })
	dedup := ReduceByKey(pairs, func(a, b T) T { return a })
	return Map(dedup, func(kv Pair[K, T]) T { return kv.Value })
}

// Values projects a pair RDD to its values.
func Values[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[V] {
	return Map(r, func(kv Pair[K, V]) V { return kv.Value })
}
