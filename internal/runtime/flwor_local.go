package runtime

import (
	"time"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/orderby"
)

// tuple is one assignment of FLWOR variables — part of the dynamic context,
// not a database tuple (footnote 1 of the paper). It is the one row form of
// both tuple pipelines: the local one streams tuples, the cluster one moves
// the same tuples through an RDD. names is the clause's frame, fixed at
// compile time and shared by every tuple the clause emits, as a DataFrame's
// schema is; variable i of the frame is bound to values[i], and the last
// binding of a redeclared name shadows.
type tuple struct {
	names  []string
	values [][]item.Item
}

// with returns the tuple under frame, which is t's frame followed by one
// name per sequence in seqs. Only the values are copied.
func (t tuple) with(frame []string, seqs ...[]item.Item) tuple {
	values := make([][]item.Item, len(frame))
	copy(values[copy(values, t.values):], seqs)
	return tuple{names: frame, values: values}
}

// in points the tuple scope sc at t and returns it: variables resolve by
// slot off the tuple's own slices, and nothing is allocated.
func (t tuple) in(sc *DynamicContext) *DynamicContext {
	return sc.rebind(t.names, t.values)
}

// clauseEval streams the tuple output of one FLWOR clause. Each clause keeps
// what it does to one tuple in a method of its own (expand, bind, keysOf,
// top, less, and the group table's folds), which the cluster steps of
// flwor_df.go call too: the clause semantics exist once. Those methods take
// the tuple scope (see tupleScope) of the loop calling them — one per
// streamTuples call here, one per partition task in flwor_df.go.
type clauseEval interface {
	streamTuples(dc *DynamicContext, yield func(tuple) error) error
}

// forEval implements the for clause: one output tuple per item.
type forEval struct {
	parent     clauseEval // nil when this is the initial clause
	frame      []string   // incoming frame, the variable, the positional variable if any
	pos        bool       // binds a positional variable
	allowEmpty bool
	in         Iterator
}

// bind extends base with the for variable and, when declared, its position.
func (f *forEval) bind(base tuple, seq []item.Item, pos int64) tuple {
	if f.pos {
		return base.with(f.frame, seq, []item.Item{item.Int(pos)})
	}
	return base.with(f.frame, seq)
}

// expand streams the tuples base expands to: one per item of the input
// sequence evaluated under base (bound in the scope sc), or, when that is
// empty and the clause allows it, one binding the empty sequence at
// position 0.
func (f *forEval) expand(sc *DynamicContext, base tuple, yield func(tuple) error) error {
	var pos int64
	bdc := base.in(sc)
	if seq, ok, err := readInPlace(f.in, bdc); ok {
		// A sequence already held: each tuple binds a one-item view of it.
		if err != nil {
			return err
		}
		for i := range seq {
			pos++
			if err := yield(f.bind(base, seq[i:i+1:i+1], pos)); err != nil {
				return err
			}
		}
	} else if err := f.in.Stream(bdc, func(it item.Item) error {
		pos++
		return yield(f.bind(base, []item.Item{it}, pos))
	}); err != nil {
		return err
	}
	if pos == 0 && f.allowEmpty {
		return yield(f.bind(base, nil, 0))
	}
	return nil
}

func (f *forEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	// Cooperative cancellation: the for clause is the driving loop of
	// local FLWOR evaluation, so it checks the Go context periodically.
	if ctx := dc.GoContext(); ctx != nil {
		emit := yield
		var seen int
		yield = func(t tuple) error {
			if seen++; seen&63 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return emit(t)
		}
	}
	sc := dc.tupleScope()
	if f.parent == nil {
		return f.expand(sc, tuple{}, yield)
	}
	return f.parent.streamTuples(dc, func(base tuple) error {
		return f.expand(sc, base, yield)
	})
}

// letEval implements the let clause: extend each tuple with the whole
// sequence.
type letEval struct {
	parent clauseEval // nil when this is the initial clause
	frame  []string   // incoming frame and the variable
	value  Iterator
}

// bind extends base with the let variable, evaluated under base bound in
// the scope sc.
func (l *letEval) bind(sc *DynamicContext, base tuple) (tuple, error) {
	seq, err := Materialize(l.value, base.in(sc))
	if err != nil {
		return tuple{}, err
	}
	return base.with(l.frame, seq), nil
}

func (l *letEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	sc := dc.tupleScope()
	emit := func(base tuple) error {
		out, err := l.bind(sc, base)
		if err != nil {
			return err
		}
		return yield(out)
	}
	if l.parent == nil {
		return emit(tuple{})
	}
	return l.parent.streamTuples(dc, emit)
}

// whereEval filters tuples by the effective boolean value of the condition.
type whereEval struct {
	parent clauseEval
	cond   Iterator
}

func (w *whereEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	sc := dc.tupleScope()
	return w.parent.streamTuples(dc, func(t tuple) error {
		b, err := ebvOf(w.cond, t.in(sc))
		if err != nil {
			return err
		}
		if b {
			return yield(t)
		}
		return nil
	})
}

// groupSpecEval is one compiled grouping key.
type groupSpecEval struct {
	varName string
	expr    Iterator // nil when grouping by an existing variable ...
	src     int      // ... read from this slot of the work frame; -1 when the tuple does not bind it
}

// groupCarry is one non-grouping variable the clause carries through: slot
// src of the incoming tuple, reduced to its length when everything
// downstream only counts it.
type groupCarry struct {
	src       int
	countOnly bool
}

// groupByEval implements the group-by clause (§4.7) through a groupTable,
// which folds each incoming tuple into its group under the output frame —
// the keys, then the carried variables, count-only ones reduced to their
// summed length and unused ones dropped, so a group holds (and a shuffle
// ships) no payload the rest of the FLWOR cannot see.
type groupByEval struct {
	parent clauseEval
	specs  []groupSpecEval
	work   []string // incoming frame, then one name per key: what key expressions see
	carry  []groupCarry
	frame  []string // output frame: one name per key, then one per carried variable
}

// newGroupByEval computes the clause's frames from the incoming one and the
// compiler's usage analysis.
func newGroupByEval(parent clauseEval, in []string, specs []groupSpecEval, usage map[string]compiler.VarUsage) *groupByEval {
	g := &groupByEval{parent: parent, specs: specs, work: in[:len(in):len(in)]}
	isKey := make(map[string]bool, len(specs))
	for i := range specs {
		name := specs[i].varName
		if specs[i].expr == nil {
			specs[i].src = slotOf(g.work, name)
		}
		g.work = append(g.work, name)
		g.frame = append(g.frame, name)
		isKey[name] = true
	}
	for i, name := range in {
		if isKey[name] || usage[name] == compiler.UsageUnused || slotOf(in, name) != i {
			continue // a key, dropped, or shadowed by a later binding of the name
		}
		countOnly := usage[name] == compiler.UsageCountOnly
		if countOnly {
			name += compiler.CountMarkerSuffix
		}
		g.carry = append(g.carry, groupCarry{src: i, countOnly: countOnly})
		g.frame = append(g.frame, name)
	}
	return g
}

func (g *groupByEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	tb := g.newTable(dc)
	if err := g.parent.streamTuples(dc, tb.foldRow); err != nil {
		return err
	}
	return tb.emit(func(_ string, t tuple) error { return yield(t) })
}

// orderSpecEval is one compiled ordering key.
type orderSpecEval struct {
	expr          Iterator
	emptyGreatest bool
}

// orderByEval implements the order-by clause (§4.8) under the rules of
// package orderby: compute each tuple's keys, reject a key that is a
// string on one tuple and a number on another, sort stably. Under a
// recorded top-k bound (compiler.Info.TopK) the sort keeps only the first
// topK tuples; every tuple is still keyed, so key errors and the mix check
// see the whole stream.
type orderByEval struct {
	parent clauseEval
	specs  []orderSpecEval
	desc   []bool // per key: descending
	topK   int64  // the bound, or -1 for a full sort
}

// keyedTuple is a tuple with its ordering keys: item.SortKey's four fields
// are the native typed key columns of §4.8, and its Compare their
// lexicographic order.
type keyedTuple struct {
	t    tuple
	keys []item.SortKey
}

// keysOf evaluates and validates the ordering keys of t, bound in the
// scope sc.
func (o *orderByEval) keysOf(sc *DynamicContext, t tuple) (keyedTuple, error) {
	keys := make([]item.SortKey, len(o.specs))
	if err := o.keyInto(keys, sc, t); err != nil {
		return keyedTuple{}, err
	}
	return keyedTuple{t: t, keys: keys}, nil
}

// keyInto is keysOf into a buffer the caller owns.
func (o *orderByEval) keyInto(keys []item.SortKey, sc *DynamicContext, t tuple) error {
	tdc := t.in(sc)
	for i, spec := range o.specs {
		seq, err := Materialize(spec.expr, tdc)
		if err != nil {
			return err
		}
		if keys[i], err = orderby.Key(seq, spec.emptyGreatest); err != nil {
			return Errorf("%v", err)
		}
	}
	return nil
}

// less orders two keyed tuples by the clause's keys and directions.
func (o *orderByEval) less(a, b keyedTuple) bool {
	return orderby.Compare(o.desc, a.keys, b.keys) < 0
}

// top keys every tuple each streams into one buffer, notes its kinds in
// mix and offers it to a bounded sort of topK tuples.
func (o *orderByEval) top(sc *DynamicContext, mix orderby.Mix, each func(func(tuple) error) error) (*orderby.Bounded[tuple], error) {
	top := orderby.NewBounded[tuple](o.topK, o.desc)
	keys := make([]item.SortKey, len(o.specs))
	err := each(func(t tuple) error {
		if err := o.keyInto(keys, sc, t); err != nil {
			return err
		}
		mix.Note(keys)
		if p := top.Offer(keys); p != nil {
			*p = t
		}
		return nil
	})
	return top, err
}

func (o *orderByEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	mix := make(orderby.Mix, len(o.specs))
	sc := dc.tupleScope()
	if o.topK >= 0 {
		top, err := o.top(sc, mix, func(f func(tuple) error) error { return o.parent.streamTuples(dc, f) })
		if err != nil {
			return err
		}
		if err := mix.Err(); err != nil {
			return Errorf("%v", err)
		}
		return top.Sorted(func(_ []item.SortKey, t tuple) error { return yield(t) })
	}
	var rows []keyedTuple
	err := o.parent.streamTuples(dc, func(t tuple) error {
		k, err := o.keysOf(sc, t)
		if err != nil {
			return err
		}
		mix.Note(k.keys)
		rows = append(rows, k)
		return nil
	})
	if err != nil {
		return err
	}
	if err := mix.Err(); err != nil {
		return Errorf("%v", err)
	}
	orderby.Stable(rows, o.less)
	for _, r := range rows {
		if err := yield(r.t); err != nil {
			return err
		}
	}
	return nil
}

// countEval implements the count clause: bind the 1-based tuple position.
type countEval struct {
	parent clauseEval
	frame  []string // incoming frame and the variable
}

func (c *countEval) bind(base tuple, n int64) tuple {
	return base.with(c.frame, []item.Item{item.Int(n)})
}

func (c *countEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	var n int64
	return c.parent.streamTuples(dc, func(t tuple) error {
		n++
		return yield(c.bind(t, n))
	})
}

// compile-time representation of a whole FLWOR expression. The compiler
// chose the execution mode statically: the DataFrame plan exists exactly
// when the node was annotated ModeDataFrame.
type flworIter struct {
	planNode
	local  clauseEval // chained local evaluators
	ret    Iterator
	df     *dfPlan // non-nil when the static mode is ModeDataFrame
	opRoot int     // profiling operator of the whole FLWOR (result rows)
}

func (f *flworIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	op := dc.Profile().Op(f.opRoot)
	sc := dc.tupleScope()
	if op == nil {
		return f.local.streamTuples(dc, func(t tuple) error {
			return f.ret.Stream(t.in(sc), yield)
		})
	}
	start := time.Now()
	var rows int64
	err := f.local.streamTuples(dc, func(t tuple) error {
		return f.ret.Stream(t.in(sc), func(it item.Item) error {
			rows++
			return yield(it)
		})
	})
	op.AddRows(rows)
	op.AddBatches(1)
	op.AddWall(time.Since(start))
	return err
}
