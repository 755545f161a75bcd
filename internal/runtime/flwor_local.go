package runtime

import (
	"sort"
	"time"

	"rumble/internal/ast"
	"rumble/internal/compiler"
	"rumble/internal/item"
)

// tuple is one assignment of FLWOR variables — part of the dynamic context,
// not a database tuple (footnote 1 of the paper). Variable order is
// tracked so tuples convert deterministically to DataFrame rows.
type tuple struct {
	names  []string
	values [][]item.Item
}

func (t tuple) lookup(name string) ([]item.Item, bool) {
	for i := len(t.names) - 1; i >= 0; i-- {
		if t.names[i] == name {
			return t.values[i], true
		}
	}
	return nil, false
}

// extend returns a copy of the tuple with one more binding. Variable
// redeclaration shadows: lookup scans from the end, and hidden variables
// are dropped when materializing contexts.
func (t tuple) extend(name string, seq []item.Item) tuple {
	names := make([]string, len(t.names)+1)
	copy(names, t.names)
	names[len(t.names)] = name
	values := make([][]item.Item, len(t.values)+1)
	copy(values, t.values)
	values[len(t.values)] = seq
	return tuple{names: names, values: values}
}

// context converts the tuple into a child dynamic context of dc: one
// allocation, resolving variables by slot off the tuple's own slices (the
// last binding of a redeclared name shadows, as in lookup).
func (t tuple) context(dc *DynamicContext) *DynamicContext {
	return dc.bindTuple(t.names, t.values)
}

// clauseEval streams the tuple output of one FLWOR clause.
type clauseEval interface {
	streamTuples(dc *DynamicContext, yield func(tuple) error) error
}

// forEval implements the for clause: one output tuple per item.
type forEval struct {
	parent     clauseEval // nil when this is the initial clause
	varName    string
	posVar     string
	allowEmpty bool
	in         Iterator
}

func (f *forEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	// Cooperative cancellation: the for clause is the driving loop of
	// local FLWOR evaluation, so it checks the Go context periodically.
	ctx := dc.GoContext()
	var seen int
	emit := func(base tuple) error {
		bdc := base.context(dc)
		var pos int64
		err := f.in.Stream(bdc, func(it item.Item) error {
			if ctx != nil {
				if seen++; seen&63 == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
			pos++
			out := base.extend(f.varName, []item.Item{it})
			if f.posVar != "" {
				out = out.extend(f.posVar, []item.Item{item.Int(pos)})
			}
			return yield(out)
		})
		if err != nil {
			return err
		}
		if pos == 0 && f.allowEmpty {
			out := base.extend(f.varName, nil)
			if f.posVar != "" {
				out = out.extend(f.posVar, []item.Item{item.Int(0)})
			}
			return yield(out)
		}
		return nil
	}
	if f.parent == nil {
		return emit(tuple{})
	}
	return f.parent.streamTuples(dc, emit)
}

// letEval implements the let clause: extend each tuple with the whole
// sequence.
type letEval struct {
	parent  clauseEval // nil when this is the initial clause
	varName string
	value   Iterator
}

func (l *letEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	emit := func(base tuple) error {
		seq, err := Materialize(l.value, base.context(dc))
		if err != nil {
			return err
		}
		return yield(base.extend(l.varName, seq))
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
	return w.parent.streamTuples(dc, func(t tuple) error {
		b, err := ebvOf(w.cond, t.context(dc))
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
	expr    Iterator // nil when grouping by an existing variable
}

// groupByEval implements the group-by clause locally: materialize, bucket
// by encoded keys, emit one tuple per group with non-grouping variables
// re-bound to the concatenation of their values. The usage analysis mirrors
// the DataFrame path: count-only variables bind only their pre-aggregated
// count, and unused variables are not carried at all.
type groupByEval struct {
	parent clauseEval
	specs  []groupSpecEval
	usage  map[string]compiler.VarUsage
}

func (g *groupByEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	type group struct {
		keys   [][]item.Item // singleton or empty sequence per spec
		tuples []tuple
	}
	groups := make(map[string]*group)
	var order []string
	err := g.parent.streamTuples(dc, func(t tuple) error {
		// Bind / resolve each grouping key on this tuple.
		keySeqs := make([][]item.Item, len(g.specs))
		work := t
		for i, spec := range g.specs {
			var seq []item.Item
			if spec.expr != nil {
				s, err := Materialize(spec.expr, work.context(dc))
				if err != nil {
					return err
				}
				seq = s
			} else {
				s, ok := work.lookup(spec.varName)
				if !ok {
					return Errorf("group by: variable $%s is not bound", spec.varName)
				}
				seq = s
			}
			if len(seq) > 1 {
				return Errorf("group by: key $%s binds a sequence of %d items", spec.varName, len(seq))
			}
			keySeqs[i] = seq
			work = work.extend(spec.varName, seq)
		}
		var keyBuf []byte
		for _, seq := range keySeqs {
			sk, err := item.EncodeSortKey(seq, false)
			if err != nil {
				return Errorf("group by: %v", err)
			}
			keyBuf = item.AppendSortKey(keyBuf, sk)
		}
		k := string(keyBuf)
		grp, ok := groups[k]
		if !ok {
			grp = &group{keys: keySeqs}
			groups[k] = grp
			order = append(order, k)
		}
		grp.tuples = append(grp.tuples, work)
		return nil
	})
	if err != nil {
		return err
	}
	for _, k := range order {
		grp := groups[k]
		out := tuple{}
		isKey := make(map[string]bool, len(g.specs))
		for i, spec := range g.specs {
			out = out.extend(spec.varName, grp.keys[i])
			isKey[spec.varName] = true
		}
		// Non-grouping variables: concatenation across the group's tuples,
		// or just the count / nothing per the usage analysis.
		seen := map[string]bool{}
		for _, name := range grp.tuples[0].names {
			if isKey[name] || seen[name] {
				continue
			}
			seen[name] = true
			if g.usage[name] == compiler.UsageUnused {
				continue
			}
			var n int64
			var all []item.Item
			for _, t := range grp.tuples {
				if seq, ok := t.lookup(name); ok {
					n += int64(len(seq))
					if g.usage[name] != compiler.UsageCountOnly {
						all = append(all, seq...)
					}
				}
			}
			if g.usage[name] == compiler.UsageCountOnly {
				out = out.extend(name+compiler.CountMarkerSuffix, []item.Item{item.Int(n)})
				continue
			}
			out = out.extend(name, all)
		}
		if err := yield(out); err != nil {
			return err
		}
	}
	return nil
}

// orderSpecEval is one compiled ordering key.
type orderSpecEval struct {
	expr          Iterator
	descending    bool
	emptyGreatest bool
}

// orderByEval implements the order-by clause locally: materialize tuples,
// compute keys (single atomic or empty required; mixed string/number types
// raise an error per the JSONiq spec), sort stably, re-emit.
type orderByEval struct {
	parent clauseEval
	specs  []orderSpecEval
}

func (o *orderByEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	type keyed struct {
		t    tuple
		keys []item.SortKey
	}
	var rows []keyed
	// Track observed value tags per spec for the compatibility check.
	sawString := make([]bool, len(o.specs))
	sawNumber := make([]bool, len(o.specs))
	err := o.parent.streamTuples(dc, func(t tuple) error {
		keys := make([]item.SortKey, len(o.specs))
		tdc := t.context(dc)
		for i, spec := range o.specs {
			seq, err := Materialize(spec.expr, tdc)
			if err != nil {
				return err
			}
			if len(seq) > 1 {
				return Errorf("order by: key binds a sequence of %d items", len(seq))
			}
			if len(seq) == 1 && !item.IsAtomic(seq[0]) {
				return Errorf("order by: key is a non-atomic %s item", seq[0].Kind())
			}
			sk, err := item.EncodeSortKey(seq, spec.emptyGreatest)
			if err != nil {
				return Errorf("order by: %v", err)
			}
			switch sk.Tag {
			case item.TagString:
				sawString[i] = true
			case item.TagNumber:
				sawNumber[i] = true
			}
			keys[i] = sk
		}
		rows = append(rows, keyed{t: t, keys: keys})
		return nil
	})
	if err != nil {
		return err
	}
	for i := range o.specs {
		if sawString[i] && sawNumber[i] {
			return Errorf("order by: key %d mixes strings and numbers across the tuple stream", i+1)
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, spec := range o.specs {
			c := rows[a].keys[i].Compare(rows[b].keys[i])
			if c == 0 {
				continue
			}
			if spec.descending {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, r := range rows {
		if err := yield(r.t); err != nil {
			return err
		}
	}
	return nil
}

// countEval implements the count clause: bind the 1-based tuple position.
type countEval struct {
	parent  clauseEval
	varName string
}

func (c *countEval) streamTuples(dc *DynamicContext, yield func(tuple) error) error {
	var n int64
	return c.parent.streamTuples(dc, func(t tuple) error {
		n++
		return yield(t.extend(c.varName, []item.Item{item.Int(n)}))
	})
}

// compile-time representation of a whole FLWOR expression. The compiler
// chose the execution mode statically: the DataFrame plan exists exactly
// when the node was annotated ModeDataFrame.
type flworIter struct {
	planNode
	clauses []ast.Clause // original clause list (for DataFrame planning)
	local   clauseEval   // chained local evaluators
	ret     Iterator
	df      *dfPlan // non-nil when the static mode is ModeDataFrame
	opRoot  int     // profiling operator of the whole FLWOR (result rows)
}

func (f *flworIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	op := dc.Profile().Op(f.opRoot)
	if op == nil {
		return f.local.streamTuples(dc, func(t tuple) error {
			return f.ret.Stream(t.context(dc), yield)
		})
	}
	start := time.Now()
	var rows int64
	err := f.local.streamTuples(dc, func(t tuple) error {
		return f.ret.Stream(t.context(dc), func(it item.Item) error {
			rows++
			return yield(it)
		})
	})
	op.AddRows(rows)
	op.AddBatches(1)
	op.AddWall(time.Since(start))
	return err
}
