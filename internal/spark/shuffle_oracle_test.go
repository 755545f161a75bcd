package spark

import (
	"sort"
	"sync"
)

// The shuffle oracles: SortBy as it was before it sorted its runs in place
// and merged them, kept word for word, and a sequential replay of the hash
// exchange that concatenates each output partition's buckets in map
// partition order before reading them. FuzzSortByMatchesBuckets and
// TestExchangeReadersKeepOrder hold SortBy, GroupByKey, ReduceByKey,
// JoinByKey and PartitionBy to these partitions, contents and order.

// oracleSortBy produces a globally sorted RDD using sampled range
// boundaries, a range-partitioning shuffle and a per-partition sort —
// Spark's sortByKey strategy. less must be a strict weak ordering.
func oracleSortBy[T any](r *RDD[T], less func(a, b T) bool) *RDD[T] {
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
	return NewRDD(r.ctx, numOut, "oracleSortBy("+r.name+")", func(p int, yield func(T) error) error {
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

// oracleBuckets computes r's partitions in order on the calling goroutine
// and concatenates, per output partition, what each map partition hashed
// to it.
func oracleBuckets[K comparable, V any](r *RDD[Pair[K, V]], numOut int) ([][]Pair[K, V], error) {
	buckets := make([][]Pair[K, V], numOut)
	for p := 0; p < r.parts; p++ {
		local := make([][]Pair[K, V], numOut)
		if err := r.compute(p, func(kv Pair[K, V]) error {
			b := int(hashKey(kv.Key) % uint64(numOut))
			local[b] = append(local[b], kv)
			return nil
		}); err != nil {
			return nil, err
		}
		for b, recs := range local {
			buckets[b] = append(buckets[b], recs...)
		}
	}
	return buckets, nil
}

// oracleGroup gathers one concatenated bucket's values per key, in
// first-seen key order.
func oracleGroup[K comparable, V any](bucket []Pair[K, V]) []Pair[K, []V] {
	groups := make(map[K][]V)
	var order []K
	for _, kv := range bucket {
		if _, ok := groups[kv.Key]; !ok {
			order = append(order, kv.Key)
		}
		groups[kv.Key] = append(groups[kv.Key], kv.Value)
	}
	out := make([]Pair[K, []V], len(order))
	for i, k := range order {
		out[i] = Pair[K, []V]{k, groups[k]}
	}
	return out
}

// oracleJoin probes one concatenated left bucket, in order, against a hash
// table over the concatenated right bucket.
func oracleJoin[K comparable, V, W any](left []Pair[K, V], right []Pair[K, W]) []Pair[K, Joined[V, W]] {
	build := make(map[K][]W)
	for _, kv := range right {
		build[kv.Key] = append(build[kv.Key], kv.Value)
	}
	var out []Pair[K, Joined[V, W]]
	for _, kv := range left {
		for _, w := range build[kv.Key] {
			out = append(out, Pair[K, Joined[V, W]]{kv.Key, Joined[V, W]{kv.Value, w}})
		}
	}
	return out
}

// oracleReduce replays ReduceByKey: a first-seen-order combine within each
// map partition, the concatenated exchange, then a first-seen-order combine
// within each output partition.
func oracleReduce[K comparable, V any](r *RDD[Pair[K, V]], numOut int, combine func(V, V) V) ([][]Pair[K, V], error) {
	reduce := func(each func(func(Pair[K, V]) error) error) ([]Pair[K, V], error) {
		acc := make(map[K]V)
		var order []K
		err := each(func(kv Pair[K, V]) error {
			if cur, ok := acc[kv.Key]; ok {
				acc[kv.Key] = combine(cur, kv.Value)
			} else {
				acc[kv.Key] = kv.Value
				order = append(order, kv.Key)
			}
			return nil
		})
		out := make([]Pair[K, V], len(order))
		for i, k := range order {
			out[i] = Pair[K, V]{k, acc[k]}
		}
		return out, err
	}
	pre := NewRDD(r.ctx, r.parts, "oracleCombine", func(p int, yield func(Pair[K, V]) error) error {
		recs, err := reduce(func(f func(Pair[K, V]) error) error { return r.compute(p, f) })
		if err != nil {
			return err
		}
		for _, kv := range recs {
			if err := yield(kv); err != nil {
				return err
			}
		}
		return nil
	})
	buckets, err := oracleBuckets(pre, numOut)
	if err != nil {
		return nil, err
	}
	out := make([][]Pair[K, V], numOut)
	for b, bucket := range buckets {
		out[b], _ = reduce(func(f func(Pair[K, V]) error) error {
			for _, kv := range bucket {
				if err := f(kv); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return out, nil
}
