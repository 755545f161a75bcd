package runtime

import (
	"errors"

	"rumble/internal/ast"
	"rumble/internal/item"
	"rumble/internal/spark"
)

// ifIter chooses a branch by the effective boolean value of the condition.
// The compiler annotates it ModeRDD when either branch is parallel: the
// chosen branch runs as an RDD if its own static mode allows, and is
// parallelized from its local result otherwise.
type ifIter struct {
	planNode
	cond, then, els Iterator
	sc              *spark.Context
}

func (i *ifIter) branch(dc *DynamicContext) (Iterator, error) {
	b, err := ebvOf(i.cond, dc)
	if err != nil {
		return nil, err
	}
	if b {
		return i.then, nil
	}
	return i.els, nil
}

func (i *ifIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	br, err := i.branch(dc)
	if err != nil {
		return err
	}
	return br.Stream(dc, yield)
}

func (i *ifIter) RDD(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	br, err := i.branch(dc)
	if err != nil {
		return nil, err
	}
	if br.Mode().Parallel() {
		return br.RDD(dc)
	}
	seq, err := Materialize(br, dc)
	if err != nil {
		return nil, err
	}
	return spark.Parallelize(i.sc, seq, 0), nil
}

// switchIter compares the switch operand against each case value using
// deep-equal semantics (atomics compare by value; the empty sequence
// matches an empty case).
type switchIter struct {
	localOnly
	input Iterator
	cases []switchCase
	deflt Iterator
}

type switchCase struct {
	values []Iterator
	result Iterator
}

func (s *switchIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	inSeq, err := Materialize(s.input, dc)
	if err != nil {
		return err
	}
	if len(inSeq) > 1 {
		return Errorf("switch operand must be a single item or empty, got %d items", len(inSeq))
	}
	for _, c := range s.cases {
		for _, v := range c.values {
			vSeq, err := Materialize(v, dc)
			if err != nil {
				return err
			}
			if len(vSeq) > 1 {
				return Errorf("switch case operand must be a single item or empty")
			}
			match := false
			switch {
			case len(inSeq) == 0 && len(vSeq) == 0:
				match = true
			case len(inSeq) == 1 && len(vSeq) == 1:
				match = item.DeepEqual(inSeq[0], vSeq[0])
			}
			if match {
				return c.result.Stream(dc, yield)
			}
		}
	}
	return s.deflt.Stream(dc, yield)
}

// tryCatchIter evaluates the try branch, switching to the catch branch on
// any dynamic error. Errors during the already-yielded prefix cannot be
// unwound, so the try result is materialized first, per snapshot semantics.
type tryCatchIter struct {
	localOnly
	try, catch Iterator
}

func (t *tryCatchIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, err := Materialize(t.try, dc)
	if err != nil {
		var dyn *Error
		if errors.As(err, &dyn) {
			cdc := dc.BindVar("err:description", []item.Item{item.Str(dyn.Msg)})
			return t.catch.Stream(cdc, yield)
		}
		return err
	}
	for _, it := range seq {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

// quantifiedIter is some/every … satisfies, with nested binding loops.
type quantifiedIter struct {
	localOnly
	every     bool
	bindings  []quantBinding
	satisfies Iterator
}

type quantBinding struct {
	name string
	in   Iterator
}

func (q *quantifiedIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	result, err := q.eval(dc, 0)
	if err != nil {
		return err
	}
	return yield(item.Bool(result))
}

// eval recursively iterates binding i; returns the quantified truth value.
func (q *quantifiedIter) eval(dc *DynamicContext, i int) (bool, error) {
	if i == len(q.bindings) {
		return ebvOf(q.satisfies, dc)
	}
	seq, err := Materialize(q.bindings[i].in, dc)
	if err != nil {
		return false, err
	}
	for _, it := range seq {
		sub, err := q.eval(dc.BindVar(q.bindings[i].name, []item.Item{it}), i+1)
		if err != nil {
			return false, err
		}
		if q.every && !sub {
			return false, nil
		}
		if !q.every && sub {
			return true, nil
		}
	}
	return q.every, nil
}

// instanceOfIter implements "instance of" over sequence types.
type instanceOfIter struct {
	localOnly
	input Iterator
	typ   ast.SequenceType
}

func matchesSequenceType(seq []item.Item, st ast.SequenceType) bool {
	if st.EmptySequence {
		return len(seq) == 0
	}
	switch st.Occurrence {
	case "":
		if len(seq) != 1 {
			return false
		}
	case "?":
		if len(seq) > 1 {
			return false
		}
	case "+":
		if len(seq) == 0 {
			return false
		}
	case "*":
		// any length
	}
	for _, it := range seq {
		if !item.InstanceOf(it, st.ItemType) {
			return false
		}
	}
	return true
}

// eval computes the test as a Go boolean. Stream and ebvOf both call it.
func (i *instanceOfIter) eval(dc *DynamicContext) (bool, error) {
	seq, err := Materialize(i.input, dc)
	if err != nil {
		return false, err
	}
	return matchesSequenceType(seq, i.typ), nil
}

func (i *instanceOfIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	b, err := i.eval(dc)
	if err != nil {
		return err
	}
	return yield(item.Bool(b))
}

// treatIter implements "treat as": identity with a runtime type check.
type treatIter struct {
	localOnly
	input Iterator
	typ   ast.SequenceType
}

func (t *treatIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, err := Materialize(t.input, dc)
	if err != nil {
		return err
	}
	if !matchesSequenceType(seq, t.typ) {
		return Errorf("treat as: sequence does not match type %s%s", t.typ.ItemType, t.typ.Occurrence)
	}
	for _, it := range seq {
		if err := yield(it); err != nil {
			return err
		}
	}
	return nil
}

// castableIter implements "castable as".
type castableIter struct {
	localOnly
	input    Iterator
	typeName string
}

func (c *castableIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, err := Materialize(c.input, dc)
	if err != nil {
		return err
	}
	if len(seq) != 1 || !item.IsAtomic(seq[0]) {
		return yield(item.Bool(false))
	}
	return yield(item.Bool(item.Castable(seq[0], c.typeName)))
}

// castIter implements "cast as".
type castIter struct {
	localOnly
	input    Iterator
	typeName string
}

func (c *castIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	seq, err := Materialize(c.input, dc)
	if err != nil {
		return err
	}
	if len(seq) == 0 {
		return Errorf("cast as %s: empty sequence (use castable or '?')", c.typeName)
	}
	it, err := exactlyOneAtomic(seq, "cast operand")
	if err != nil {
		return err
	}
	out, err := item.CastTo(it, c.typeName)
	if err != nil {
		return Errorf("%v", err)
	}
	return yield(out)
}
