package runtime

import (
	"rumble/internal/item"
	"rumble/internal/spark"
)

// objectLookupIter implements Input.Key: for every object item in the
// input, yield the value bound to the key; non-objects and absent keys
// contribute nothing. RDD execution is a flatMap, as §4.1.2 describes.
//
// A literal key is folded into the node at compile time (lit, hasLit); key
// is the dynamic path, nil when the key is folded.
type objectLookupIter struct {
	planNode
	input  Iterator
	key    Iterator
	lit    string
	hasLit bool
}

// lookupKey evaluates the key expression to a string.
func (o *objectLookupIter) lookupKey(dc *DynamicContext) (string, error) {
	if o.hasLit {
		return o.lit, nil
	}
	seq, err := Materialize(o.key, dc)
	if err != nil {
		return "", err
	}
	kit, err := exactlyOneAtomic(seq, "object lookup key")
	if err != nil {
		return "", err
	}
	s, err := item.StringValue(kit)
	if err != nil {
		return "", Errorf("%v", err)
	}
	return s, nil
}

// fieldOf is the closure-free read behind Materialize: a literal key looked
// up on a bound variable or on another such lookup ($v.a, $v.a.b). For the
// usual single object the result is a view of the object's own value slice
// (see item.Object.Lookup); handled=false sends every other shape — a
// computed key, a streaming input — down the generic path.
func (o *objectLookupIter) fieldOf(dc *DynamicContext) (seq []item.Item, handled bool, err error) {
	if !o.hasLit {
		return nil, false, nil
	}
	switch o.input.(type) {
	case *varRefIter, *objectLookupIter:
	default:
		return nil, false, nil
	}
	in, err := Materialize(o.input, dc)
	if err != nil {
		return nil, true, err
	}
	if len(in) == 1 {
		if obj, ok := in[0].(*item.Object); ok {
			return obj.Lookup(o.lit), true, nil
		}
		return nil, true, nil
	}
	for _, it := range in {
		if obj, ok := it.(*item.Object); ok {
			if v, found := obj.Get(o.lit); found {
				seq = append(seq, v)
			}
		}
	}
	return seq, true, nil
}

func (o *objectLookupIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	key, err := o.lookupKey(dc)
	if err != nil {
		return err
	}
	return o.input.Stream(dc, func(it item.Item) error {
		if obj, ok := it.(*item.Object); ok {
			if v, found := obj.Get(key); found {
				return yield(v)
			}
		}
		return nil
	})
}

func (o *objectLookupIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	in, err := o.input.RDD(dc)
	if err != nil {
		return nil, err
	}
	key, err := o.lookupKey(dc)
	if err != nil {
		return nil, err
	}
	return spark.FlatMap(in, func(it item.Item) []item.Item {
		if obj, ok := it.(*item.Object); ok {
			if v, found := obj.Get(key); found {
				return []item.Item{v}
			}
		}
		return nil
	}), nil
}

// arrayUnboxIter implements Input[]: stream the members of each array item;
// non-arrays contribute nothing.
type arrayUnboxIter struct {
	planNode
	input Iterator
}

func (a *arrayUnboxIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	return a.input.Stream(dc, func(it item.Item) error {
		if arr, ok := it.(*item.Array); ok {
			for _, m := range arr.Members() {
				if err := yield(m); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (a *arrayUnboxIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	in, err := a.input.RDD(dc)
	if err != nil {
		return nil, err
	}
	return spark.FlatMap(in, func(it item.Item) []item.Item {
		if arr, ok := it.(*item.Array); ok {
			return arr.Members()
		}
		return nil
	}), nil
}

// arrayLookupIter implements Input[[Index]] (1-based member access).
// A literal integer index is folded into the node at compile time (lit,
// hasLit); index is the dynamic path, nil when the index is folded.
type arrayLookupIter struct {
	planNode
	input  Iterator
	index  Iterator
	lit    int64
	hasLit bool
}

func (a *arrayLookupIter) indexValue(dc *DynamicContext) (int64, bool, error) {
	if a.hasLit {
		return a.lit, true, nil
	}
	seq, err := Materialize(a.index, dc)
	if err != nil {
		return 0, false, err
	}
	if len(seq) == 0 {
		return 0, false, nil
	}
	iit, err := exactlyOneAtomic(seq, "array lookup index")
	if err != nil {
		return 0, false, err
	}
	n, err := item.CastToInteger(iit)
	if err != nil {
		return 0, false, Errorf("array lookup index must be an integer: %v", err)
	}
	return int64(n.(item.Int)), true, nil
}

func member(it item.Item, idx int64) (item.Item, bool) {
	arr, ok := it.(*item.Array)
	if !ok || idx < 1 || idx > int64(arr.Len()) {
		return nil, false
	}
	return arr.Member(int(idx - 1)), true
}

func (a *arrayLookupIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	idx, ok, err := a.indexValue(dc)
	if err != nil || !ok {
		return err
	}
	return a.input.Stream(dc, func(it item.Item) error {
		if m, found := member(it, idx); found {
			return yield(m)
		}
		return nil
	})
}

func (a *arrayLookupIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	in, err := a.input.RDD(dc)
	if err != nil {
		return nil, err
	}
	idx, ok, err := a.indexValue(dc)
	if err != nil {
		return nil, err
	}
	if !ok {
		return spark.Parallelize[item.Item](in.Context(), nil, 1), nil
	}
	return spark.FlatMap(in, func(it item.Item) []item.Item {
		if m, found := member(it, idx); found {
			return []item.Item{m}
		}
		return nil
	}), nil
}

// simpleMapIter implements the "!" operator: the mapping expression is
// evaluated once per input item with $$ bound to it, results concatenated.
// On the cluster it is a flatMap whose closure carries the mapping
// iterator, evaluated through its local API per item (§5.6).
type simpleMapIter struct {
	planNode
	input   Iterator
	mapping Iterator
}

func (s *simpleMapIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	sc := dc.tupleScope()
	var pos int64
	return s.input.Stream(dc, func(it item.Item) error {
		pos++
		return s.mapping.Stream(sc.rebindItem(it, pos), yield)
	})
}

// RDD evaluates the mapping once per item in a scope per partition task,
// each item's results in full before the first is yielded.
func (s *simpleMapIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	in, err := s.input.RDD(dc)
	if err != nil {
		return nil, err
	}
	indexed := spark.ZipWithIndex(in)
	return spark.MapPartitions(indexed, func(each func(func(spark.Pair[int64, item.Item]) error) error, yield func(item.Item) error) error {
		sc := dc.tupleScope()
		return each(func(kv spark.Pair[int64, item.Item]) error {
			out, err := Materialize(s.mapping, sc.rebindItem(kv.Value, kv.Key+1))
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

// predicateIter implements Input[Pred]. For every input item, the predicate
// is evaluated with $$ bound to the item and the context position to its
// 1-based index: a numeric predicate value selects by position, anything
// else filters by effective boolean value. On the cluster, the predicate
// iterator travels inside the closure and runs through its local API on
// each executor (§5.6).
type predicateIter struct {
	planNode
	input Iterator
	pred  Iterator
}

// keep decides whether the item at position pos (1-based) passes, binding
// it in the scope sc.
func (p *predicateIter) keep(sc *DynamicContext, it item.Item, pos int64) (bool, error) {
	pdc := sc.rebindItem(it, pos)
	switch p.pred.(type) {
	case *comparisonIter, *logicIter, *instanceOfIter:
		// A boolean or the empty sequence, never a position.
		return ebvOf(p.pred, pdc)
	}
	seq, err := Materialize(p.pred, pdc)
	if err != nil {
		return false, err
	}
	if len(seq) == 1 && item.IsNumeric(seq[0]) {
		return item.Float64Value(seq[0]) == float64(pos), nil
	}
	b, err := item.EffectiveBoolean(seq)
	if err != nil {
		return false, Errorf("%v", err)
	}
	return b, nil
}

func (p *predicateIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	sc := dc.tupleScope()
	var pos int64
	return p.input.Stream(dc, func(it item.Item) error {
		pos++
		ok, err := p.keep(sc, it, pos)
		if err != nil {
			return err
		}
		if ok {
			return yield(it)
		}
		return nil
	})
}

func (p *predicateIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	in, err := p.input.RDD(dc)
	if err != nil {
		return nil, err
	}
	indexed := spark.ZipWithIndex(in)
	return spark.MapPartitions(indexed, func(each func(func(spark.Pair[int64, item.Item]) error) error, yield func(item.Item) error) error {
		sc := dc.tupleScope()
		return each(func(kv spark.Pair[int64, item.Item]) error {
			ok, err := p.keep(sc, kv.Value, kv.Key+1)
			if err != nil || !ok {
				return err
			}
			return yield(kv.Value)
		})
	}), nil
}
