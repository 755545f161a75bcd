package spark

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
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

// shuffleExchange materializes the parent pair RDD once, bucketing records
// by hash of key into numOut buckets. Concurrent consumers share one
// exchange via sync.Once, matching Spark's write-once shuffle files.
type shuffleExchange[K comparable, V any] struct {
	once    sync.Once
	err     error
	buckets [][]Pair[K, V]
}

func (ex *shuffleExchange[K, V]) runOnce(r *RDD[Pair[K, V]], numOut int) {
	ex.once.Do(func() {
		perPart := make([][][]Pair[K, V], r.parts)
		err := r.ctx.runStage(r.parts, func(p int) error {
			local := make([][]Pair[K, V], numOut)
			e := r.compute(p, func(kv Pair[K, V]) error {
				b := int(hashKey(kv.Key) % uint64(numOut))
				local[b] = append(local[b], kv)
				return nil
			})
			perPart[p] = local
			return e
		})
		if err != nil {
			ex.err = err
			return
		}
		ex.buckets = make([][]Pair[K, V], numOut)
		var n int64
		for _, local := range perPart {
			for b, recs := range local {
				ex.buckets[b] = append(ex.buckets[b], recs...)
				n += int64(len(recs))
			}
		}
		r.ctx.metrics.ShuffleRecords.Add(n)
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
		var order []K // bucket replay order is deterministic, so this is too
		for _, kv := range ex.buckets[p] {
			if cur, ok := acc[kv.Key]; ok {
				acc[kv.Key] = combine(cur, kv.Value)
			} else {
				acc[kv.Key] = kv.Value
				order = append(order, kv.Key)
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

// GroupByKey gathers all values of each key into a slice.
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[Pair[K, []V]] {
	numOut := r.ctx.conf.Parallelism
	var ex shuffleExchange[K, V]
	return NewRDD(r.ctx, numOut, "groupByKey("+r.name+")", func(p int, yield func(Pair[K, []V]) error) error {
		ex.runOnce(r, numOut)
		if ex.err != nil {
			return ex.err
		}
		groups := make(map[K][]V)
		var order []K // first-seen key order keeps the emit deterministic
		for _, kv := range ex.buckets[p] {
			if _, ok := groups[kv.Key]; !ok {
				order = append(order, kv.Key)
			}
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
		}
		for _, k := range order {
			if err := yield(Pair[K, []V]{k, groups[k]}); err != nil {
				return err
			}
		}
		return nil
	})
}

// SortBy produces a globally sorted RDD using sampled range boundaries, a
// range-partitioning shuffle and a per-partition sort — Spark's sortByKey
// strategy. less must be a strict weak ordering.
func SortBy[T any](r *RDD[T], less func(a, b T) bool) *RDD[T] {
	numOut := r.ctx.conf.Parallelism
	type state struct {
		once    sync.Once
		err     error
		buckets [][]T
	}
	st := &state{}
	run := func() {
		st.once.Do(func() {
			// Stage 1: materialize partitions (also serves as the sample).
			parts := make([][]T, r.parts)
			st.err = r.ctx.runStage(r.parts, func(p int) error {
				var buf []T
				e := r.compute(p, func(v T) error {
					buf = append(buf, v)
					return nil
				})
				parts[p] = buf
				return e
			})
			if st.err != nil {
				return
			}
			var total int
			for _, p := range parts {
				total += len(p)
			}
			// Choose numOut-1 boundaries from a deterministic stride sample.
			var sample []T
			stride := total/1024 + 1
			i := 0
			for _, p := range parts {
				for _, v := range p {
					if i%stride == 0 {
						sample = append(sample, v)
					}
					i++
				}
			}
			sort.SliceStable(sample, func(i, j int) bool { return less(sample[i], sample[j]) })
			bounds := make([]T, 0, numOut-1)
			for b := 1; b < numOut; b++ {
				idx := b * len(sample) / numOut
				if idx < len(sample) {
					bounds = append(bounds, sample[idx])
				}
			}
			// Stage 2: range-partition and sort each bucket.
			st.buckets = make([][]T, numOut)
			for _, p := range parts {
				for _, v := range p {
					b := sort.Search(len(bounds), func(i int) bool { return less(v, bounds[i]) })
					st.buckets[b] = append(st.buckets[b], v)
				}
			}
			serr := r.ctx.runStage(numOut, func(p int) error {
				sort.SliceStable(st.buckets[p], func(i, j int) bool {
					return less(st.buckets[p][i], st.buckets[p][j])
				})
				return nil
			})
			if serr != nil {
				st.err = serr
				return
			}
			var n int64
			for _, b := range st.buckets {
				n += int64(len(b))
			}
			r.ctx.metrics.ShuffleRecords.Add(n)
		})
	}
	return NewRDD(r.ctx, numOut, "sortBy("+r.name+")", func(p int, yield func(T) error) error {
		run()
		if st.err != nil {
			return st.err
		}
		for _, v := range st.buckets[p] {
			if err := yield(v); err != nil {
				return err
			}
		}
		return nil
	})
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
