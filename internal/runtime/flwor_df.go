package runtime

import (
	"sync"
	"time"

	"rumble/internal/item"
	"rumble/internal/orderby"
	"rumble/internal/spark"
)

// dfPlan is the cluster execution plan of a FLWOR expression annotated
// ModeDataFrame, built at compile time when the initial clause is a for
// over an RDD-capable expression. The tuple stream is the paper's DataFrame
// with one "sequence of items" column per variable (§4.3), held as an RDD of
// the very tuples the local pipeline streams: the clause's frame is the
// schema, and each step applies the §4.4-§4.9 mapping by driving the
// clause's local evaluator from an RDD transformation. A step that
// evaluates expressions per tuple runs through spark.MapPartitions and
// makes its tuple scope once per partition task.
type dfPlan struct {
	join  *compiledJoin // non-nil when the head is a detected equi-join
	head  *forEval      // otherwise the initial for clause
	steps []dfStep
	ret   Iterator
}

// dfStep maps the tuple RDD entering one clause to the one leaving it.
type dfStep func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error)

// RDD materializes the FLWOR's output sequence as an RDD by running the
// DataFrame plan. When the evaluation carries a profile, the output RDD
// is wrapped so executor tasks record the FLWOR's result cardinality —
// the intermediate steps stay uninstrumented (they are lazy views whose
// per-step cardinalities never materialize separately).
func (f *flworIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	rdd, err := f.rddPlan(dc)
	if err != nil {
		return nil, err
	}
	op := dc.Profile().Op(f.opRoot)
	if op == nil {
		return rdd, nil
	}
	return spark.Observe(rdd, func(rows int64, wall time.Duration) {
		op.AddRows(rows)
		op.AddBatches(1)
		op.AddWall(wall)
	}), nil
}

// rddPlan builds the head tuple RDD, runs the clause steps over it and
// flat-maps the return clause (§4.10) into the output RDD of items.
func (f *flworIter) rddPlan(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	if f.df == nil {
		return nil, Errorf("FLWOR expression does not support RDD execution")
	}
	p := f.df
	var tuples *spark.RDD[tuple]
	if p.join != nil {
		// The head of the FLWOR is a statically detected equi-join: one
		// two-variable tuple per matched pair.
		joined, err := p.join.pairsRDD(dc)
		if err != nil {
			return nil, err
		}
		tuples = spark.Map(joined, func(kv spark.Pair[string, spark.Joined[item.Item, item.Item]]) tuple {
			return p.join.pair(kv.Value.Left, kv.Value.Right)
		})
	} else {
		// Initial for clause: one single-variable tuple per item (§4.4: "if
		// the clause is the very first one, it creates a new DataFrame with a
		// single column"), plus its global position when requested.
		in, err := p.head.in.RDD(dc)
		if err != nil {
			return nil, err
		}
		if p.head.pos {
			tuples = spark.Map(spark.ZipWithIndex(in), func(kv spark.Pair[int64, item.Item]) tuple {
				return p.head.bind(tuple{}, []item.Item{kv.Value}, kv.Key+1)
			})
		} else {
			tuples = spark.Map(in, func(it item.Item) tuple {
				return p.head.bind(tuple{}, []item.Item{it}, 0)
			})
		}
	}
	for _, step := range p.steps {
		var err error
		if tuples, err = step(tuples, dc); err != nil {
			return nil, err
		}
	}
	// Each tuple's results are evaluated in full before the first is
	// yielded: a later error still fails the job before a Take downstream
	// can stop it. They are read in place or collected into one buffer per
	// task, so a one-item return allocates no sequence of its own.
	return spark.MapPartitions(tuples, func(each func(func(tuple) error) error, yield func(item.Item) error) error {
		sc := dc.tupleScope()
		var buf []item.Item
		collect := func(it item.Item) error {
			buf = append(buf, it)
			return nil
		}
		return each(func(t tuple) error {
			tc := t.in(sc)
			out, ok, err := readInPlace(p.ret, tc)
			if !ok {
				clear(buf)
				buf = buf[:0]
				err = p.ret.Stream(tc, collect)
				out = buf
			}
			if err != nil {
				return err
			}
			for _, it := range out {
				if err := yield(it); err != nil {
					return err
				}
			}
			return nil
		})
	}), nil
}

// --- step builders, one per clause type ---

// dfForStep maps a non-initial for clause to an extended projection plus
// EXPLODE (§4.4). A tuple expands in full before its first output is
// yielded: an error later in the expansion fails the job even when a Take
// downstream would stop at the earlier outputs.
func dfForStep(f *forEval) dfStep {
	return func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error) {
		return spark.MapPartitions(in, func(each func(func(tuple) error) error, yield func(tuple) error) error {
			sc := dc.tupleScope()
			var out []tuple
			collect := func(o tuple) error {
				out = append(out, o)
				return nil
			}
			return each(func(t tuple) error {
				out = out[:0]
				if err := f.expand(sc, t, collect); err != nil {
					return err
				}
				//rumble:ctxpoll-ok emits one tuple's expansion, already drained from f.in's checkpointing Stream
				for _, o := range out {
					if err := yield(o); err != nil {
						return err
					}
				}
				return nil
			})
		}), nil
	}
}

// dfLetStep maps a let clause to an extended projection (§4.5).
func dfLetStep(l *letEval) dfStep {
	return func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error) {
		return spark.MapPartitions(in, func(each func(func(tuple) error) error, yield func(tuple) error) error {
			sc := dc.tupleScope()
			return each(func(t tuple) error {
				out, err := l.bind(sc, t)
				if err != nil {
					return err
				}
				return yield(out)
			})
		}), nil
	}
}

// dfWhereStep maps a where clause to a selection (§4.6).
func dfWhereStep(cond Iterator) dfStep {
	return func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error) {
		return spark.MapPartitions(in, func(each func(func(tuple) error) error, yield func(tuple) error) error {
			sc := dc.tupleScope()
			return each(func(t tuple) error {
				ok, err := ebvOf(cond, t.in(sc))
				if err != nil || !ok {
					return err
				}
				return yield(t)
			})
		}), nil
	}
}

// dfGroupStep maps a group-by clause (§4.7) the way Spark combines before
// a shuffle: each map task folds its partition into one partial group per
// key (the keys' native typed columns are the exchange key), a hash
// exchange sends each key's partials to one reduce task in map-partition
// order, and that task folds them into the group's tuple.
func dfGroupStep(g *groupByEval) dfStep {
	return func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error) {
		partials := spark.MapPartitions(in, func(each func(func(tuple) error) error, yield func(spark.Pair[string, tuple]) error) error {
			tb := g.newTable(dc)
			if err := each(tb.foldRow); err != nil {
				return err
			}
			return tb.emit(func(key string, t tuple) error {
				return yield(spark.Pair[string, tuple]{Key: key, Value: t})
			})
		})
		return spark.MapPartitions(spark.PartitionBy(partials), func(each func(func(spark.Pair[string, tuple]) error) error, yield func(tuple) error) error {
			tb := g.newTable(nil)
			if err := each(func(kv spark.Pair[string, tuple]) error {
				tb.foldPartial(kv.Key, kv.Value)
				return nil
			}); err != nil {
				return err
			}
			return tb.emit(func(_ string, t tuple) error { return yield(t) })
		}), nil
	}
}

// dfOrderStep maps an order-by clause (§4.8): the native keys feed a
// range-partitioned sort that reads the keyed tuples once. The keying tasks
// note which keys were strings and which numbers; the sort checks that
// mix after it has keyed every tuple and before it emits the first, so an
// incompatible mix fails the step whatever consumes it — and a key error,
// raised while keying, wins over a mix. Under a top-k bound each keying
// task keeps its partition's first topK tuples (Spark's takeOrdered), so
// the sort sees at most topK per partition.
func dfOrderStep(o *orderByEval) dfStep {
	return func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error) {
		var mu sync.Mutex
		mix := make(orderby.Mix, len(o.specs))
		keyed := spark.MapPartitions(in, func(each func(func(tuple) error) error, yield func(keyedTuple) error) error {
			sc := dc.tupleScope()
			local := make(orderby.Mix, len(o.specs))
			var top *orderby.Bounded[tuple]
			var err error
			if o.topK >= 0 {
				top, err = o.top(sc, local, each)
			} else {
				err = each(func(t tuple) error {
					k, err := o.keysOf(sc, t)
					if err != nil {
						return err
					}
					local.Note(k.keys)
					return yield(k)
				})
			}
			mu.Lock()
			mix.Add(local)
			mu.Unlock()
			if err != nil || top == nil {
				return err
			}
			return top.Sorted(func(keys []item.SortKey, t tuple) error {
				return yield(keyedTuple{t: t, keys: keys})
			})
		})
		sorted := spark.SortBy(keyed, o.less, func() error {
			mu.Lock()
			defer mu.Unlock()
			if err := mix.Err(); err != nil {
				return Errorf("%v", err)
			}
			return nil
		})
		return spark.Map(sorted, func(k keyedTuple) tuple { return k.t }), nil
	}
}

// dfCountStep maps a count clause to the incremental-integer column of
// §4.9 (zipWithIndex).
func dfCountStep(c *countEval) dfStep {
	return func(in *spark.RDD[tuple], dc *DynamicContext) (*spark.RDD[tuple], error) {
		return spark.Map(spark.ZipWithIndex(in), func(kv spark.Pair[int64, tuple]) tuple {
			return c.bind(kv.Value, kv.Key+1)
		}), nil
	}
}
