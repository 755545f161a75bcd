package spark

import "sync"

// Joined is one matched record pair produced by an equi-join: the value
// from the left (probe) input and the value from the right (build) input.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// JoinByKey is the shuffle hash join: both sides are hash-partitioned on
// their key through the write-once shuffle exchange, then each output
// partition builds a hash table over its right-side bucket and probes it
// with its left-side bucket, preserving left order within the partition.
// Shuffled records on both sides count toward the ShuffleRecords metric.
//
// check, when non-nil, runs in every output partition after both sides are
// fully materialized but before any pair is emitted; a non-nil error aborts
// the join. Engine layers use it for cross-side validation (e.g. key type
// compatibility) that needs both inputs observed in full.
func JoinByKey[K comparable, V, W any](left *RDD[Pair[K, V]], right *RDD[Pair[K, W]], check func() error) *RDD[Pair[K, Joined[V, W]]] {
	numOut := left.ctx.conf.Parallelism
	var exL shuffleExchange[K, V]
	var exR shuffleExchange[K, W]
	name := "joinByKey(" + left.name + ", " + right.name + ")"
	return NewRDD(left.ctx, numOut, name, func(p int, yield func(Pair[K, Joined[V, W]]) error) error {
		exL.runOnce(left, numOut)
		if exL.err != nil {
			return exL.err
		}
		exR.runOnce(right, numOut)
		if exR.err != nil {
			return exR.err
		}
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		build := make(map[K][]W)
		for _, local := range exR.runs {
			for _, kv := range local[p] {
				build[kv.Key] = append(build[kv.Key], kv.Value)
			}
		}
		for _, local := range exL.runs {
			for _, kv := range local[p] {
				for _, w := range build[kv.Key] {
					if err := yield(Pair[K, Joined[V, W]]{Key: kv.Key, Value: Joined[V, W]{Left: kv.Value, Right: w}}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// BroadcastHashJoin joins a large RDD against a small side that is already
// collected on the driver, the way Spark broadcasts a small relation to
// every executor: the hash table is built once (counting the broadcast
// records metric), then the big side streams through it with no shuffle,
// preserving the big side's order. Matches per key come in small-side
// order.
func BroadcastHashJoin[K comparable, V, W any](big *RDD[Pair[K, V]], small []Pair[K, W]) *RDD[Pair[K, Joined[V, W]]] {
	var (
		once  sync.Once
		build map[K][]W
	)
	prepare := func() {
		build = make(map[K][]W, len(small))
		for _, kv := range small {
			build[kv.Key] = append(build[kv.Key], kv.Value)
		}
		big.ctx.metrics.BroadcastRecords.Add(int64(len(small)))
	}
	return NewRDD(big.ctx, big.parts, "broadcastHashJoin("+big.name+")", func(p int, yield func(Pair[K, Joined[V, W]]) error) error {
		once.Do(prepare)
		return big.compute(p, func(kv Pair[K, V]) error {
			for _, w := range build[kv.Key] {
				if err := yield(Pair[K, Joined[V, W]]{Key: kv.Key, Value: Joined[V, W]{Left: kv.Value, Right: w}}); err != nil {
					return err
				}
			}
			return nil
		})
	})
}
