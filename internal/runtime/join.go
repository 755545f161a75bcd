package runtime

import (
	"math/bits"
	"sync/atomic"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/keytab"
	"rumble/internal/spark"
)

// compiledJoin is the runtime form of a compiler.JoinPlan: the two join
// inputs, the compiled key expression pairs, and the statically chosen
// strategy. It replaces the FLWOR's leading for/for/where clauses on both
// the local tuple path (joinEval) and the DataFrame path (dfPlan.join);
// probe-filter then residual conjuncts are applied as ordinary where steps
// by the compiler.
type compiledJoin struct {
	// frame names the left then the right variable: the frame of the joined
	// tuples, and in halves the one-name frame each side's keys bind under.
	frame                 []string
	leftIn, rightIn       Iterator
	leftKeys, rightKeys   []Iterator
	probeFilter, residual []Iterator
	strategy              compiler.JoinStrategy
	buildLeft             bool
}

// compileJoin compiles the plan's expressions into iterators.
func (c *comp) compileJoin(jp *compiler.JoinPlan) (*compiledJoin, error) {
	j := &compiledJoin{
		frame:     []string{jp.Left.Var, jp.Right.Var},
		strategy:  jp.Strategy,
		buildLeft: jp.BuildLeft,
	}
	var err error
	if j.leftIn, err = c.compile(jp.Left.In); err != nil {
		return nil, err
	}
	if j.rightIn, err = c.compile(jp.Right.In); err != nil {
		return nil, err
	}
	for i := range jp.LeftKeys {
		lk, err := c.compile(jp.LeftKeys[i])
		if err != nil {
			return nil, err
		}
		rk, err := c.compile(jp.RightKeys[i])
		if err != nil {
			return nil, err
		}
		j.leftKeys = append(j.leftKeys, lk)
		j.rightKeys = append(j.rightKeys, rk)
	}
	if j.probeFilter, err = c.compileAll(jp.ProbeFilter); err != nil {
		return nil, err
	}
	if j.residual, err = c.compileAll(jp.Residual); err != nil {
		return nil, err
	}
	return j, nil
}

// joinKeyScope binds the items of one join side, one at a time, under the
// side's one-name frame for its key expressions: a tuple scope pointed once
// at a one-slot binding whose item is overwritten per row. Nothing a key
// expression returns outlives encodeJoinKeys, so the slot is dead once a
// row's keys are encoded. One scope serves one stream locally and one
// partition task on the cluster.
type joinKeyScope struct {
	sc  *DynamicContext
	row []item.Item // the bound sequence: always exactly one item
	key []byte      // the key bytes encodeJoinKeys returns, until its next call
}

func newJoinKeyScope(dc *DynamicContext, frame []string) *joinKeyScope {
	row := make([]item.Item, 1)
	return &joinKeyScope{sc: dc.tupleScope().rebind(frame, [][]item.Item{row}), row: row}
}

// encodeJoinKeys evaluates one side's key expressions for one item and
// returns the canonical composite key bytes (via item.AppendSortKey, so
// keys match exactly when every SortKey pair compares equal, the same
// equivalence "eq" implements), the observed type-tag mask (8 bits per
// key, as in the order-by type check), and ok=false when some key is the
// empty sequence — "eq" over an empty operand is the empty sequence, whose
// effective boolean value is false, so the row joins nothing. Encoding
// stops at the first empty key, mirroring the short-circuit of "and".
func encodeJoinKeys(keys []Iterator, ks *joinKeyScope, it item.Item) ([]byte, uint64, bool, error) {
	ks.row[0] = it
	ks.key = ks.key[:0]
	var mask uint64
	for i, k := range keys {
		seq, err := Materialize(k, ks.sc)
		if err != nil {
			return nil, 0, false, err
		}
		if len(seq) > 1 {
			return nil, 0, false, Errorf("join key %d binds a sequence of %d items; eq requires a single item", i+1, len(seq))
		}
		sk, err := item.EncodeSortKey(seq, false)
		if err != nil {
			return nil, 0, false, Errorf("join key %d: %v", i+1, err)
		}
		if len(seq) == 0 {
			return nil, mask, false, nil
		}
		mask |= (1 << uint(sk.Tag)) << (8 * uint(i))
		ks.key = item.AppendSortKey(ks.key, sk)
	}
	return ks.key, mask, true, nil
}

// keyCats folds one key's tag bits into comparable categories: booleans,
// strings and numbers are mutually non-comparable under "eq" (null
// compares with everything and the empty sequence never reaches a
// comparison).
func keyCats(tagBits byte) byte {
	var c byte
	if tagBits&(1<<item.TagFalse|1<<item.TagTrue) != 0 {
		c |= 1
	}
	if tagBits&(1<<item.TagString) != 0 {
		c |= 2
	}
	if tagBits&(1<<item.TagNumber) != 0 {
		c |= 4
	}
	return c
}

// joinKeyTypeConflict replays the nested loop's type errors: a pair of
// items from the two sides with non-comparable kinds exists exactly when
// both sides observed a comparable category for some key and their union
// holds more than one category — "eq" would have raised on that pair.
func joinKeyTypeConflict(lmask, rmask uint64, numKeys int) error {
	for i := 0; i < numKeys; i++ {
		lc := keyCats(byte(lmask >> (8 * uint(i))))
		rc := keyCats(byte(rmask >> (8 * uint(i))))
		if lc != 0 && rc != 0 && bits.OnesCount8(lc|rc) > 1 {
			return Errorf("join key %d mixes non-comparable types across the two sides: %v", i+1, item.ErrNonComparable)
		}
	}
	return nil
}

// atomicMask accumulates tag masks from concurrent executor tasks.
type atomicMask struct{ v atomic.Uint64 }

func (m *atomicMask) or(bits uint64) {
	for {
		old := m.v.Load()
		if old&bits == bits || m.v.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// --- local path ---

// joinEval is the local hash-join head of a FLWOR's tuple pipeline: it
// numbers the right input's encoded join keys, listing each key's rows,
// then probes them while streaming the left input. Output order is exactly
// the nested loop's (left-major, right input order within a key), so local
// results are bit-identical to the fallback.
type joinEval struct {
	j *compiledJoin
}

func (e *joinEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	j := e.j
	var build *keytab.Table
	var rows [][]item.Item // per key id: its right rows, in input order
	var rmask uint64
	// The hash table is built lazily on the first left row: a nested loop
	// over an empty left input never evaluates the right side's keys, so
	// neither may the join (a malformed right-side key must not abort a
	// query whose probe side is empty).
	buildRight := func() error {
		build = keytab.New(0)
		ks := newJoinKeyScope(dc, j.frame[1:])
		return j.rightIn.Stream(dc, func(it item.Item) error {
			key, mask, ok, err := encodeJoinKeys(j.rightKeys, ks, it)
			if err != nil {
				return err
			}
			rmask |= mask
			if ok {
				id, fresh := build.IDBytes(key)
				if fresh {
					rows = append(rows, nil)
				}
				rows[id] = append(rows[id], it)
			}
			return nil
		})
	}
	probe := newJoinKeyScope(dc, j.frame[:1])
	return j.leftIn.Stream(dc, func(it item.Item) error {
		if build == nil {
			if err := buildRight(); err != nil {
				return err
			}
		}
		key, mask, ok, err := encodeJoinKeys(j.leftKeys, probe, it)
		if err != nil {
			return err
		}
		// This left row meets every right row in the nested loop; raise the
		// type error the loop's "eq" would have raised.
		if err := joinKeyTypeConflict(mask, rmask, len(j.leftKeys)); err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if id := build.Find(key); id >= 0 {
			for _, r := range rows[id] {
				if err := yield(j.pair(it, r)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// pair is the tuple of one matched pair.
func (j *compiledJoin) pair(left, right item.Item) tuple {
	return tuple{names: j.frame, values: [][]item.Item{{left}, {right}}}
}

// --- DataFrame path ---

// pairsRDD runs the join on the cluster: one record per matched pair.
func (j *compiledJoin) pairsRDD(dc *DynamicContext) (*spark.RDD[spark.Pair[string, spark.Joined[item.Item, item.Item]]], error) {
	leftRDD, err := j.leftIn.RDD(dc)
	if err != nil {
		return nil, err
	}
	rightRDD, err := j.rightIn.RDD(dc)
	if err != nil {
		return nil, err
	}
	numKeys := len(j.leftKeys)
	var lmask, rmask atomicMask
	// encodePairs keys one side's items; perRow, when set, validates each
	// row's types eagerly against the already-complete other-side mask.
	encodePairs := func(r *spark.RDD[item.Item], keys []Iterator, frame []string, acc *atomicMask, perRow func(mask uint64) error) *spark.RDD[spark.Pair[string, item.Item]] {
		return spark.MapPartitions(r, func(each func(func(item.Item) error) error, yield func(spark.Pair[string, item.Item]) error) error {
			ks := newJoinKeyScope(dc, frame)
			return each(func(it item.Item) error {
				key, mask, ok, err := encodeJoinKeys(keys, ks, it)
				if err != nil {
					return err
				}
				acc.or(mask)
				if perRow != nil {
					if err := perRow(mask); err != nil {
						return err
					}
				}
				if !ok {
					return nil
				}
				return yield(spark.Pair[string, item.Item]{Key: string(key), Value: it})
			})
		})
	}
	var joined *spark.RDD[spark.Pair[string, spark.Joined[item.Item, item.Item]]]
	switch {
	case j.strategy == compiler.JoinHash:
		// Shuffle hash join: both sides exchange; the type check runs once
		// both sides are fully materialized, before any pair is emitted.
		lp := encodePairs(leftRDD, j.leftKeys, j.frame[:1], &lmask, nil)
		rp := encodePairs(rightRDD, j.rightKeys, j.frame[1:], &rmask, nil)
		joined = spark.JoinByKey(lp, rp, func() error {
			return joinKeyTypeConflict(lmask.v.Load(), rmask.v.Load(), numKeys)
		})
	case j.buildLeft:
		// Broadcast the small left side; stream the big right side over it.
		small, err := spark.Collect(encodePairs(leftRDD, j.leftKeys, j.frame[:1], &lmask, nil))
		if err != nil {
			return nil, err
		}
		big := encodePairs(rightRDD, j.rightKeys, j.frame[1:], &rmask, func(mask uint64) error {
			return joinKeyTypeConflict(lmask.v.Load(), mask, numKeys)
		})
		bj := spark.BroadcastHashJoin(big, small)
		joined = spark.Map(bj, func(kv spark.Pair[string, spark.Joined[item.Item, item.Item]]) spark.Pair[string, spark.Joined[item.Item, item.Item]] {
			kv.Value.Left, kv.Value.Right = kv.Value.Right, kv.Value.Left
			return kv
		})
	default:
		// Broadcast the small right side; stream the big left side over it.
		small, err := spark.Collect(encodePairs(rightRDD, j.rightKeys, j.frame[1:], &rmask, nil))
		if err != nil {
			return nil, err
		}
		big := encodePairs(leftRDD, j.leftKeys, j.frame[:1], &lmask, func(mask uint64) error {
			return joinKeyTypeConflict(mask, rmask.v.Load(), numKeys)
		})
		joined = spark.BroadcastHashJoin(big, small)
	}
	return joined, nil
}
