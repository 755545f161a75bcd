package runtime

import (
	"fmt"
	"time"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/spark"
)

// dfPlan is the DataFrame execution plan of a FLWOR expression, built at
// compile time when the initial clause is a for over an RDD-capable
// expression. Tuple streams physically live as DataFrames whose variable
// columns have type "sequence of items" (§4.3); each clause maps the
// incoming DataFrame to the outgoing one with the §4.4-§4.9 mappings.
type dfPlan struct {
	sc      *spark.Context
	join    *compiledJoin // non-nil when the head is a detected equi-join
	initVar string
	initPos string // "" when the initial for has no positional variable
	initIn  Iterator
	steps   []dfStep
	ret     Iterator
}

// dfState is the evolving physical state while the plan applies.
type dfState struct {
	df     *spark.DataFrame
	varCol map[string]string // variable name -> column name
	nextID int
}

// dfStep applies one clause's DataFrame mapping.
type dfStep func(st *dfState, dc *DynamicContext) error

func (st *dfState) freshCol() string {
	st.nextID++
	return fmt.Sprintf("c%d", st.nextID)
}

// rowBinder precomputes the frame of the current schema — which variable
// each cell of a row carries — so UDFs bind a row with one allocation: the
// child context, which resolves variables by slot straight off the row.
func (st *dfState) rowBinder(dc *DynamicContext) func(spark.Row) *DynamicContext {
	schema := st.df.Schema()
	names := make([]string, len(schema.Cols))
	for _, v := range st.varNames() {
		if idx := schema.IndexOf(st.varCol[v]); idx >= 0 {
			names[idx] = v
		}
	}
	return func(r spark.Row) *DynamicContext { return dc.bindRow(names, r) }
}

// varColumns returns the bound variable names in a deterministic order.
func (st *dfState) varNames() []string {
	names := make([]string, 0, len(st.varCol))
	//rumble:nondeterministic-ok keys are insertion-sorted immediately below
	for v := range st.varCol {
		names = append(names, v)
	}
	// insertion sort for determinism; variable counts are small
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// RDD materializes the FLWOR's output sequence as an RDD by running the
// DataFrame plan. When the evaluation carries a profile, the output RDD
// is wrapped so executor tasks record the FLWOR's result cardinality —
// the intermediate DataFrame steps stay uninstrumented (they are lazy
// views whose per-step cardinalities never materialize separately).
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

func (f *flworIter) rddPlan(dc *DynamicContext) (*spark.RDD[item.Item], error) {
	if f.df == nil {
		return nil, Errorf("FLWOR expression does not support RDD execution")
	}
	p := f.df
	if p.join != nil {
		// The head of the FLWOR is a statically detected equi-join: the
		// initial two-column DataFrame comes from the join operator.
		st, err := p.joinInit(dc)
		if err != nil {
			return nil, err
		}
		return p.applySteps(st, dc)
	}
	in, err := p.initIn.RDD(dc)
	if err != nil {
		return nil, err
	}
	st := &dfState{varCol: map[string]string{}}
	// Initial for clause: one single-column DataFrame row per item (§4.4:
	// "if the clause is the very first one, it creates a new DataFrame
	// with a single column"), plus a position column when requested.
	if p.initPos == "" {
		rows := spark.Map(in, func(it item.Item) spark.Row {
			return spark.Row{[]item.Item{it}}
		})
		col := st.freshCol()
		st.varCol[p.initVar] = col
		st.df = spark.NewDataFrame(spark.Schema{Cols: []spark.Column{{Name: col, Type: spark.ColSeq}}}, rows)
	} else {
		zipped := spark.ZipWithIndex(in)
		rows := spark.Map(zipped, func(kv spark.Pair[int64, item.Item]) spark.Row {
			return spark.Row{[]item.Item{kv.Value}, []item.Item{item.Int(kv.Key + 1)}}
		})
		vcol, pcol := st.freshCol(), st.freshCol()
		st.varCol[p.initVar] = vcol
		st.varCol[p.initPos] = pcol
		st.df = spark.NewDataFrame(spark.Schema{Cols: []spark.Column{
			{Name: vcol, Type: spark.ColSeq}, {Name: pcol, Type: spark.ColSeq},
		}}, rows)
	}
	return p.applySteps(st, dc)
}

// applySteps runs the clause steps over the initial DataFrame state and
// flat-maps the return clause (§4.10) into the output RDD of items.
func (p *dfPlan) applySteps(st *dfState, dc *DynamicContext) (*spark.RDD[item.Item], error) {
	for _, step := range p.steps {
		if err := step(st, dc); err != nil {
			return nil, err
		}
	}
	binder := st.rowBinder(dc)
	ret := p.ret
	return spark.FlatMapE(st.df.RDD(), func(r spark.Row) ([]item.Item, error) {
		return Materialize(ret, binder(r))
	}), nil
}

// --- step builders, one per clause type ---

// dfForStep maps a non-initial for clause to an extended projection plus
// EXPLODE (§4.4).
func dfForStep(varName, posVar string, allowEmpty bool, in Iterator) dfStep {
	return func(st *dfState, dc *DynamicContext) error {
		binder := st.rowBinder(dc)
		udf := func(r spark.Row) ([]item.Item, error) {
			return Materialize(in, binder(r))
		}
		if posVar == "" {
			col := st.freshCol()
			st.df = st.df.ExplodeColumn(col, udf, allowEmpty)
			st.varCol[varName] = col
			return nil
		}
		vcol, pcol := st.freshCol(), st.freshCol()
		st.df = st.df.ExplodeWithPosition(vcol, pcol, udf, allowEmpty)
		st.varCol[varName] = vcol
		st.varCol[posVar] = pcol
		return nil
	}
}

// dfLetStep maps a let clause to an extended projection (§4.5).
func dfLetStep(varName string, value Iterator) dfStep {
	return func(st *dfState, dc *DynamicContext) error {
		binder := st.rowBinder(dc)
		col := st.freshCol()
		st.df = st.df.WithColumn(col, spark.ColSeq, func(r spark.Row) (any, error) {
			return Materialize(value, binder(r))
		})
		st.varCol[varName] = col
		return nil
	}
}

// dfWhereStep maps a where clause to a selection (§4.6).
func dfWhereStep(cond Iterator) dfStep {
	return func(st *dfState, dc *DynamicContext) error {
		binder := st.rowBinder(dc)
		st.df = st.df.Where(func(r spark.Row) (bool, error) {
			return ebvOf(cond, binder(r))
		})
		return nil
	}
}

// dfGroupSpec is one grouping key for the DataFrame path.
type dfGroupSpec struct {
	varName string
	expr    Iterator // nil when grouping on an existing variable
}

// dfGroupStep maps a group-by clause (§4.7): three typed native columns per
// key (type tag, string, double), a Spark-SQL GROUP BY on those columns,
// SEQUENCE()/COUNT() aggregation of the non-grouping variables according to
// the usage analysis, and reconstruction of the key items.
func dfGroupStep(specs []dfGroupSpec, usage map[string]compiler.VarUsage) dfStep {
	return func(st *dfState, dc *DynamicContext) error {
		// Bind keys that come with expressions (let-like extension).
		for _, spec := range specs {
			if spec.expr == nil {
				continue
			}
			if err := dfLetStep(spec.varName, spec.expr)(st, dc); err != nil {
				return err
			}
		}
		// Native key encoding: three columns per grouping variable.
		schema := st.df.Schema()
		var keyNative []string
		for _, spec := range specs {
			col, ok := st.varCol[spec.varName]
			if !ok {
				return Errorf("group by: variable $%s is not bound", spec.varName)
			}
			idx := schema.IndexOf(col)
			tagCol, strCol, numCol, intCol := st.freshCol(), st.freshCol(), st.freshCol(), st.freshCol()
			cols := []spark.Column{
				{Name: tagCol, Type: spark.ColInt},
				{Name: strCol, Type: spark.ColString},
				{Name: numCol, Type: spark.ColDouble},
				{Name: intCol, Type: spark.ColInt},
			}
			st.df = st.df.WithColumns(cols, func(r spark.Row) ([]any, error) {
				seq := r.Seq(idx)
				if len(seq) > 1 {
					return nil, Errorf("group by: key $%s binds a sequence of %d items", spec.varName, len(seq))
				}
				sk, err := item.EncodeSortKey(seq, false)
				if err != nil {
					return nil, Errorf("group by: %v", err)
				}
				return []any{int64(sk.Tag), sk.Str, sk.Num, sk.Int}, nil
			})
			schema = st.df.Schema()
			keyNative = append(keyNative, tagCol, strCol, numCol, intCol)
		}
		// Aggregations: keys keep their first (identical) value; the
		// others follow the usage plan.
		keySet := map[string]bool{}
		var aggs []spark.Agg
		for _, spec := range specs {
			keySet[spec.varName] = true
			aggs = append(aggs, spark.Agg{Col: st.varCol[spec.varName], Kind: spark.AggFirst})
		}
		newVarCol := map[string]string{}
		for _, spec := range specs {
			newVarCol[spec.varName] = st.varCol[spec.varName]
		}
		countCols := map[string]string{} // output int col -> synthetic var
		var countOrder []string          // insertion order of countCols keys
		for _, v := range st.varNames() {
			if keySet[v] {
				continue
			}
			col := st.varCol[v]
			switch usage[v] {
			case compiler.UsageUnused:
				// Column dropped entirely (§4.7 optimization).
			case compiler.UsageCountOnly:
				// COUNT() pushdown: pre-reduce the column to one integer
				// per row so the shuffle ships no payload data, then sum.
				preCol := st.freshCol()
				idx := st.df.Schema().IndexOf(col)
				st.df = st.df.WithColumn(preCol, spark.ColInt, func(r spark.Row) (any, error) {
					return int64(len(r.Seq(idx))), nil
				})
				out := st.freshCol()
				aggs = append(aggs, spark.Agg{Col: preCol, Kind: spark.AggSumInt, As: out})
				countCols[out] = v + compiler.CountMarkerSuffix
				countOrder = append(countOrder, out)
			default:
				aggs = append(aggs, spark.Agg{Col: col, Kind: spark.AggSequence})
				newVarCol[v] = col
			}
		}
		// Project away everything the aggregation does not consume before
		// the shuffle (dropped and pre-reduced columns ride along
		// otherwise).
		needed := append([]string{}, keyNative...)
		for _, a := range aggs {
			needed = append(needed, a.Col)
		}
		pruned, err := st.df.Select(needed...)
		if err != nil {
			return Errorf("group by: %v", err)
		}
		st.df = pruned
		grouped, err := st.df.GroupBy(keyNative, aggs)
		if err != nil {
			return Errorf("group by: %v", err)
		}
		st.df = grouped
		st.varCol = newVarCol
		// Convert COUNT() results into singleton integer sequences bound
		// to the synthetic count variables, in recorded insertion order so
		// synthetic column numbering is stable run to run.
		for _, intCol := range countOrder {
			syntheticVar := countCols[intCol]
			idx := st.df.Schema().IndexOf(intCol)
			seqCol := st.freshCol()
			st.df = st.df.WithColumn(seqCol, spark.ColSeq, func(r spark.Row) (any, error) {
				return []item.Item{item.Int(r[idx].(int64))}, nil
			})
			st.varCol[syntheticVar] = seqCol
		}
		// Project away the native key and raw count columns.
		keep := make([]string, 0, len(st.varCol))
		for _, v := range st.varNames() {
			keep = append(keep, st.varCol[v])
		}
		sel, err := st.df.Select(keep...)
		if err != nil {
			return Errorf("group by: %v", err)
		}
		st.df = sel
		return nil
	}
}

// dfOrderSpec is one ordering key for the DataFrame path.
type dfOrderSpec struct {
	expr          Iterator
	descending    bool
	emptyGreatest bool
}

// dfOrderStep maps an order-by clause (§4.8): a first pass discovers the
// key types and rejects incompatible mixes, then native key columns feed a
// Spark SQL ORDER BY.
func dfOrderStep(specs []dfOrderSpec) dfStep {
	return func(st *dfState, dc *DynamicContext) error {
		// Compute the typed key columns for every spec.
		binder := st.rowBinder(dc)
		var sortSpecs []spark.SortSpec
		var keyCols []string
		for _, spec := range specs {
			spec := spec
			tagCol, strCol, numCol, intCol := st.freshCol(), st.freshCol(), st.freshCol(), st.freshCol()
			cols := []spark.Column{
				{Name: tagCol, Type: spark.ColInt},
				{Name: strCol, Type: spark.ColString},
				{Name: numCol, Type: spark.ColDouble},
				{Name: intCol, Type: spark.ColInt},
			}
			st.df = st.df.WithColumns(cols, func(r spark.Row) ([]any, error) {
				seq, err := Materialize(spec.expr, binder(r))
				if err != nil {
					return nil, err
				}
				if len(seq) > 1 {
					return nil, Errorf("order by: key binds a sequence of %d items", len(seq))
				}
				if len(seq) == 1 && !item.IsAtomic(seq[0]) {
					return nil, Errorf("order by: key is a non-atomic %s item", seq[0].Kind())
				}
				sk, err := item.EncodeSortKey(seq, spec.emptyGreatest)
				if err != nil {
					return nil, Errorf("order by: %v", err)
				}
				return []any{int64(sk.Tag), sk.Str, sk.Num, sk.Int}, nil
			})
			sortSpecs = append(sortSpecs,
				spark.SortSpec{Col: tagCol, Descending: spec.descending},
				spark.SortSpec{Col: strCol, Descending: spec.descending},
				spark.SortSpec{Col: numCol, Descending: spec.descending},
				spark.SortSpec{Col: intCol, Descending: spec.descending},
			)
			keyCols = append(keyCols, tagCol)
		}
		// Cache the keyed rows: the type-check pass and the sort both
		// consume them, and recomputing would replay the whole upstream
		// pipeline (including the input parse) a second time.
		st.df = spark.NewDataFrame(st.df.Schema(), spark.Cache(st.df.RDD()))
		// First pass (§4.8): discover the observed type tags per key and
		// throw on incompatible mixes (string vs number).
		tagIdx := make([]int, len(keyCols))
		for i, kc := range keyCols {
			tagIdx[i] = st.df.Schema().IndexOf(kc)
		}
		masks := spark.Map(st.df.RDD(), func(r spark.Row) uint64 {
			var m uint64
			for i, idx := range tagIdx {
				m |= 1 << (uint(r[idx].(int64)) + 8*uint(i))
			}
			return m
		})
		seen, ok, err := spark.Reduce(masks, func(a, b uint64) uint64 { return a | b })
		if err != nil {
			return err
		}
		if ok {
			for i := range keyCols {
				tags := (seen >> (8 * uint(i))) & 0xff
				hasString := tags&(1<<uint(item.TagString)) != 0
				hasNumber := tags&(1<<uint(item.TagNumber)) != 0
				if hasString && hasNumber {
					return Errorf("order by: key %d mixes strings and numbers across the tuple stream", i+1)
				}
			}
		}
		sorted, err := st.df.OrderBy(sortSpecs)
		if err != nil {
			return Errorf("order by: %v", err)
		}
		st.df = sorted
		// Project the key columns away.
		keep := make([]string, 0, len(st.varCol))
		for _, v := range st.varNames() {
			keep = append(keep, st.varCol[v])
		}
		sel, err := st.df.Select(keep...)
		if err != nil {
			return Errorf("order by: %v", err)
		}
		st.df = sel
		return nil
	}
}

// dfCountStep maps a count clause to the incremental-integer column of
// §4.9 (zipWithIndex on the DataFrame).
func dfCountStep(varName string) dfStep {
	return func(st *dfState, dc *DynamicContext) error {
		idxCol := st.freshCol()
		st.df = st.df.ZipWithIndex(idxCol)
		idx := st.df.Schema().IndexOf(idxCol)
		seqCol := st.freshCol()
		st.df = st.df.WithColumn(seqCol, spark.ColSeq, func(r spark.Row) (any, error) {
			return []item.Item{item.Int(r[idx].(int64) + 1)}, nil
		})
		st.varCol[varName] = seqCol
		keep := make([]string, 0, len(st.varCol))
		for _, v := range st.varNames() {
			keep = append(keep, st.varCol[v])
		}
		sel, err := st.df.Select(keep...)
		if err != nil {
			return Errorf("count clause: %v", err)
		}
		st.df = sel
		return nil
	}
}
