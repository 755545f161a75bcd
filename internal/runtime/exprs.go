package runtime

import (
	"rumble/internal/item"
	"rumble/internal/spark"
)

// literalIter yields one constant item. seq is the same item as a
// one-item sequence, built once so Materialize hands it out without
// allocating (its capacity is 1: an append never writes into it).
type literalIter struct {
	localOnly
	value item.Item
	seq   []item.Item
}

func newLiteral(v item.Item) *literalIter {
	return &literalIter{value: v, seq: []item.Item{v}}
}

func (l *literalIter) Stream(_ *DynamicContext, yield func(item.Item) error) error {
	return yield(l.value)
}

// varRefIter resolves a variable binding. The compiler annotates it with
// the statically known mode of its binding: ModeRDD when the binding is a
// cluster-bound let (the value lives as an RDD), ModeLocal otherwise. An
// RDD-bound variable streams through the driver-side Scan for local
// consumers and hands its RDD to cluster consumers (aggregate pushdown,
// DataFrame heads).
type varRefIter struct {
	planNode
	name string
}

func (v *varRefIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, rdd, ok := dc.Resolve(v.name)
	if !ok {
		return Errorf("variable $%s is not bound", v.name)
	}
	if rdd != nil {
		return rdd.Scan(yield)
	}
	for _, it := range seq {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

func (v *varRefIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	_, rdd, ok := dc.Resolve(v.name)
	if !ok {
		return nil, Errorf("variable $%s is not bound", v.name)
	}
	if rdd == nil {
		return nil, Errorf("variable $%s is not cluster-resident", v.name)
	}
	return rdd, nil
}

// contextItemIter yields $$.
type contextItemIter struct {
	localOnly
}

func (contextItemIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	it, _, ok := dc.ContextItem()
	if !ok {
		return Errorf("$$ is not bound in this context")
	}
	return yield(it)
}

// commaIter concatenates its children's sequences. The compiler annotates
// it ModeRDD when every child is parallel, in which case the physical plan
// is a union of RDDs.
type commaIter struct {
	planNode
	children []Iterator
}

func (c *commaIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	for _, child := range c.children {
		if err := child.Stream(dc, yield); err != nil {
			return err
		}
	}
	return nil
}

func (c *commaIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	if !c.Mode().Parallel() {
		return nil, Errorf("comma expression does not support RDD execution")
	}
	out, err := c.children[0].RDD(dc)
	if err != nil {
		return nil, err
	}
	for _, child := range c.children[1:] {
		r, err := child.RDD(dc)
		if err != nil {
			return nil, err
		}
		out = spark.Union(out, r)
	}
	return out, nil
}

// arithIter is binary arithmetic. Operands must each evaluate to a single
// numeric item; an empty operand propagates the empty sequence.
type arithIter struct {
	localOnly
	op   item.ArithOp
	l, r Iterator
}

func (a *arithIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	ls, err := Materialize(a.l, dc)
	if err != nil {
		return err
	}
	rs, err := Materialize(a.r, dc)
	if err != nil {
		return err
	}
	if len(ls) == 0 || len(rs) == 0 {
		return nil // the empty sequence absorbs arithmetics
	}
	li, err := exactlyOneAtomic(ls, "arithmetic operand")
	if err != nil {
		return err
	}
	ri, err := exactlyOneAtomic(rs, "arithmetic operand")
	if err != nil {
		return err
	}
	res, err := item.Arithmetic(a.op, li, ri)
	if err != nil {
		return Errorf("%v", err)
	}
	return yield(res)
}

// unaryIter is unary plus/minus.
type unaryIter struct {
	localOnly
	minus   bool
	operand Iterator
}

func (u *unaryIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, err := Materialize(u.operand, dc)
	if err != nil {
		return err
	}
	if len(seq) == 0 {
		return nil
	}
	it, err := exactlyOneAtomic(seq, "unary operand")
	if err != nil {
		return err
	}
	if !u.minus {
		if !item.IsNumeric(it) {
			return Errorf("unary plus requires a numeric operand, got %s", it.Kind())
		}
		return yield(it)
	}
	neg, err := item.Negate(it)
	if err != nil {
		return Errorf("%v", err)
	}
	return yield(neg)
}

// rangeIter is "L to R" over integers.
type rangeIter struct {
	localOnly
	l, r Iterator
}

func (r *rangeIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	ls, err := Materialize(r.l, dc)
	if err != nil {
		return err
	}
	rs, err := Materialize(r.r, dc)
	if err != nil {
		return err
	}
	if len(ls) == 0 || len(rs) == 0 {
		return nil
	}
	li, err := exactlyOneAtomic(ls, "range bound")
	if err != nil {
		return err
	}
	ri, err := exactlyOneAtomic(rs, "range bound")
	if err != nil {
		return err
	}
	lo, err := item.CastToInteger(li)
	if err != nil {
		return Errorf("range bounds must be integers: %v", err)
	}
	hi, err := item.CastToInteger(ri)
	if err != nil {
		return Errorf("range bounds must be integers: %v", err)
	}
	ctx := dc.GoContext()
	for i := int64(lo.(item.Int)); i <= int64(hi.(item.Int)); i++ {
		if ctx != nil && i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := yield(item.Int(i)); err != nil {
			return err
		}
	}
	return nil
}

// concatIter is the || string concatenation operator. Empty operands
// behave as empty strings.
type concatIter struct {
	localOnly
	l, r Iterator
}

func (c *concatIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	toStr := func(it Iterator) (string, error) {
		seq, err := Materialize(it, dc)
		if err != nil {
			return "", err
		}
		if len(seq) == 0 {
			return "", nil
		}
		one, err := exactlyOneAtomic(seq, "concatenation operand")
		if err != nil {
			return "", err
		}
		s, err := item.StringValue(one)
		if err != nil {
			return "", Errorf("%v", err)
		}
		return s, nil
	}
	ls, err := toStr(c.l)
	if err != nil {
		return err
	}
	rs, err := toStr(c.r)
	if err != nil {
		return err
	}
	return yield(item.Str(ls + rs))
}

// comparisonIter implements value comparisons (eq, ne, ...) and general
// comparisons (=, !=, ...) with existential semantics.
type comparisonIter struct {
	localOnly
	op      string
	general bool
	l, r    Iterator
}

func matchesOp(op string, c int) bool {
	switch op {
	case "eq", "=":
		return c == 0
	case "ne", "!=":
		return c != 0
	case "lt", "<":
		return c < 0
	case "le", "<=":
		return c <= 0
	case "gt", ">":
		return c > 0
	case "ge", ">=":
		return c >= 0
	default:
		return false
	}
}

// eval computes the comparison as a Go boolean; empty reports the empty
// sequence a value comparison yields over an empty operand. Stream and
// ebvOf both call it, so the two agree on every result and error.
func (cmp *comparisonIter) eval(dc *DynamicContext) (result, empty bool, err error) {
	ls, err := Materialize(cmp.l, dc)
	if err != nil {
		return false, false, err
	}
	rs, err := Materialize(cmp.r, dc)
	if err != nil {
		return false, false, err
	}
	if cmp.general {
		// Existential: true if any pair matches. Non-comparable pairs are
		// simply non-matches under general comparison.
		for _, a := range ls {
			for _, b := range rs {
				c, err := item.CompareValues(a, b)
				if err != nil {
					continue
				}
				if matchesOp(cmp.op, c) {
					return true, false, nil
				}
			}
		}
		return false, false, nil
	}
	// Value comparison: empty operands yield the empty sequence.
	if len(ls) == 0 || len(rs) == 0 {
		return false, true, nil
	}
	a, err := exactlyOneAtomic(ls, "comparison operand")
	if err != nil {
		return false, false, err
	}
	b, err := exactlyOneAtomic(rs, "comparison operand")
	if err != nil {
		return false, false, err
	}
	c, err := item.CompareValues(a, b)
	if err != nil {
		return false, false, Errorf("%v", err)
	}
	return matchesOp(cmp.op, c), false, nil
}

func (cmp *comparisonIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	b, empty, err := cmp.eval(dc)
	if err != nil || empty {
		return err
	}
	return yield(item.Bool(b))
}

// logicIter is and/or over effective boolean values, with short-circuiting.
type logicIter struct {
	localOnly
	isAnd bool
	l, r  Iterator
}

// ebvOf computes the effective boolean value of it. A comparison, an
// and/or and an instance-of test are read as Go booleans, without building
// their one-item sequence — the in-place idiom of Materialize; everything
// else materializes.
func ebvOf(it Iterator, dc *DynamicContext) (bool, error) {
	switch n := it.(type) {
	case *comparisonIter:
		b, empty, err := n.eval(dc)
		return b && !empty, err // the empty sequence's EBV is false
	case *logicIter:
		return n.eval(dc)
	case *instanceOfIter:
		return n.eval(dc)
	}
	seq, err := Materialize(it, dc)
	if err != nil {
		return false, err
	}
	b, err := item.EffectiveBoolean(seq)
	if err != nil {
		return false, Errorf("%v", err)
	}
	return b, nil
}

// eval computes the and/or as a Go boolean, short-circuiting left to
// right. Stream and ebvOf both call it.
func (l *logicIter) eval(dc *DynamicContext) (bool, error) {
	lb, err := ebvOf(l.l, dc)
	if err != nil {
		return false, err
	}
	if l.isAnd && !lb {
		return false, nil
	}
	if !l.isAnd && lb {
		return true, nil
	}
	return ebvOf(l.r, dc)
}

func (l *logicIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	b, err := l.eval(dc)
	if err != nil {
		return err
	}
	return yield(item.Bool(b))
}

// objectConstructorIter builds an object from key and value expressions.
// Each key must evaluate to a single string-castable atomic; each value
// expression contributes its whole sequence (empty becomes null, a
// multi-item sequence becomes an array, matching JSONiq object semantics).
// When every key is a string literal, shape holds them, built once at
// compile time, and keys is nil.
type objectConstructorIter struct {
	localOnly
	shape  *item.Shape
	keys   []Iterator
	values []Iterator
}

func (o *objectConstructorIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	values := make([]item.Item, len(o.values))
	var keys []string
	if o.shape == nil {
		keys = make([]string, len(o.keys))
	}
	for i := range o.values {
		if o.shape == nil {
			ks, err := objectKey(o.keys[i], dc)
			if err != nil {
				return err
			}
			keys[i] = ks
		}
		vseq, err := Materialize(o.values[i], dc)
		if err != nil {
			return err
		}
		switch len(vseq) {
		case 0:
			values[i] = item.Null{}
		case 1:
			values[i] = vseq[0]
		default:
			values[i] = item.NewArray(vseq)
		}
	}
	if o.shape != nil {
		return yield(item.NewObjectOfShape(o.shape, values))
	}
	return yield(item.NewObject(keys, values))
}

// objectKey evaluates one dynamic object constructor key.
func objectKey(key Iterator, dc *DynamicContext) (string, error) {
	kseq, err := Materialize(key, dc)
	if err != nil {
		return "", err
	}
	kit, err := exactlyOneAtomic(kseq, "object key")
	if err != nil {
		return "", err
	}
	ks, err := item.StringValue(kit)
	if err != nil {
		return "", Errorf("%v", err)
	}
	return ks, nil
}

// arrayConstructorIter builds an array from the whole sequence of its body.
type arrayConstructorIter struct {
	localOnly
	body Iterator // nil for []
}

func (a *arrayConstructorIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	if a.body == nil {
		return yield(item.NewArray(nil))
	}
	seq, err := Materialize(a.body, dc)
	if err != nil {
		return err
	}
	return yield(item.NewArray(seq))
}
