package runtime

import (
	"context"
	"sync"
	"time"

	"rumble/internal/ast"
	"rumble/internal/compiler"
	"rumble/internal/dfs"
	"rumble/internal/functions"
	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/profile"
	"rumble/internal/sched"
	"rumble/internal/segment"
	"rumble/internal/spark"
	"rumble/internal/vector"
)

// This file bridges the columnar backend (internal/vector) into the
// iterator plan: compileVector turns a FLWOR the compiler annotated
// ModeVector into a vectorIter that scans its input into typed column
// batches and pushes them through filter / project / group kernels,
// instead of streaming tuple-at-a-time through the clause chain.
//
// The tuple pipeline is always compiled alongside and kept as a fallback:
// a free variable that resolves to a multi-item sequence at run time (a
// value no single-valued column can carry) re-routes that evaluation
// through the tuple path, so results are identical either way.

// vbatch is one batch of rows: the pipeline's variable columns by slot.
// Unbound slots are nil until a let (or the scan) fills them. On a segment
// morsel whose pipeline reads the scan variable whole, src is the segment's
// decoded lanes: slot 0 stays nil until vscanExpr assembles the rows that
// are still alive by then.
type vbatch struct {
	n    int
	cols []*vector.Col
	src  *segment.ColumnSet
}

// compact restricts every bound column to the kept rows.
func (b *vbatch) compact(keep []bool, kept int) *vbatch {
	nb := &vbatch{n: kept, cols: make([]*vector.Col, len(b.cols)), src: b.src}
	for i, c := range b.cols {
		if c != nil {
			nb.cols[i] = c.Compact(keep, kept)
		}
	}
	return nb
}

// vstate is per-evaluation state: free variables resolved once against the
// dynamic context and broadcast as constant columns, plus the evaluation's
// profile (nil when profiling is off — the per-morsel fast path is a
// single nil check).
type vstate struct {
	ext  []*vector.Col
	prof *profile.Profile
}

// vexpr is a compiled vector scalar expression: one column per batch.
type vexpr interface {
	eval(vs *vstate, b *vbatch) (*vector.Col, error)
}

// vlitExpr broadcasts a literal; the constant column is immutable and
// shared across evaluations.
type vlitExpr struct{ col *vector.Col }

func (v *vlitExpr) eval(*vstate, *vbatch) (*vector.Col, error) { return v.col, nil }

// vcolExpr reads a batch slot.
type vcolExpr struct{ slot int }

func (v *vcolExpr) eval(_ *vstate, b *vbatch) (*vector.Col, error) { return b.cols[v.slot], nil }

// vscanExpr reads the scan variable whole (slot 0). Raw and in-memory
// morsels fill the slot from their items up front. A segment morsel leaves
// it nil and carries each row's index within the segment in rowSlot — a
// hidden column that rides filter compaction and join expansion like any
// other — so the first read assembles items from the lanes for just the
// rows that survived until then.
type vscanExpr struct{ rowSlot int }

func (v *vscanExpr) eval(_ *vstate, b *vbatch) (*vector.Col, error) {
	if b.cols[0] == nil {
		scan := vector.NewCol(b.n)
		for i := 0; i < b.n; i++ {
			it, err := b.scanRow(v.rowSlot, i)
			if err != nil {
				return nil, err
			}
			scan.AppendItem(it)
		}
		b.cols[0] = scan
	}
	return b.cols[0], nil
}

// scanRow assembles batch row i of a segment morsel from the lanes.
func (b *vbatch) scanRow(rowSlot, i int) (item.Item, error) {
	return b.src.Row(int(b.cols[rowSlot].Ints[i]))
}

// vextExpr reads a resolved free-variable constant.
type vextExpr struct{ idx int }

func (v *vextExpr) eval(vs *vstate, _ *vbatch) (*vector.Col, error) { return vs.ext[v.idx], nil }

// vlookupExpr is a literal-key object lookup.
type vlookupExpr struct {
	in  vexpr
	key string
}

func (v *vlookupExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	in, err := v.in.eval(vs, b)
	if err != nil {
		return nil, err
	}
	return vector.Lookup(in, v.key, b.n), nil
}

// vcmpExpr is a value comparison.
type vcmpExpr struct {
	op   vector.CmpOp
	l, r vexpr
}

func (v *vcmpExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	l, err := v.l.eval(vs, b)
	if err != nil {
		return nil, err
	}
	r, err := v.r.eval(vs, b)
	if err != nil {
		return nil, err
	}
	out, err := vector.Compare(l, r, b.n, v.op)
	if err != nil {
		return nil, Errorf("%v", err)
	}
	return out, nil
}

// varithExpr is binary arithmetic.
type varithExpr struct {
	op   item.ArithOp
	l, r vexpr
}

func (v *varithExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	l, err := v.l.eval(vs, b)
	if err != nil {
		return nil, err
	}
	r, err := v.r.eval(vs, b)
	if err != nil {
		return nil, err
	}
	out, err := vector.Arith(l, r, b.n, v.op)
	if err != nil {
		return nil, Errorf("%v", err)
	}
	return out, nil
}

// vunaryExpr is unary plus/minus.
type vunaryExpr struct {
	minus bool
	in    vexpr
}

func (v *vunaryExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	in, err := v.in.eval(vs, b)
	if err != nil {
		return nil, err
	}
	out, err := vector.Unary(in, b.n, v.minus)
	if err != nil {
		return nil, Errorf("%v", err)
	}
	return out, nil
}

// vlogicExpr is and/or over effective boolean values. The right operand
// only runs on the rows the left operand leaves undecided — evaluated on a
// compacted sub-batch — so its errors surface exactly where the tuple
// backend's short-circuiting would evaluate it.
type vlogicExpr struct {
	isAnd bool
	l, r  vexpr
}

func (v *vlogicExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	lc, err := v.l.eval(vs, b)
	if err != nil {
		return nil, err
	}
	lb := make([]bool, b.n)
	keep := make([]bool, b.n)
	kept := 0
	for i := 0; i < b.n; i++ {
		lb[i] = lc.EBV(i)
		// and: a false left decides false; or: a true left decides true.
		if lb[i] != v.isAnd {
			continue
		}
		keep[i] = true
		kept++
	}
	out := vector.NewCol(b.n)
	if kept == 0 {
		for i := 0; i < b.n; i++ {
			out.AppendBool(lb[i])
		}
		return out, nil
	}
	rc, err := v.r.eval(vs, b.compact(keep, kept))
	if err != nil {
		return nil, err
	}
	j := 0
	for i := 0; i < b.n; i++ {
		if !keep[i] {
			out.AppendBool(lb[i])
			continue
		}
		out.AppendBool(rc.EBV(j))
		j++
	}
	return out, nil
}

// vobjExpr is an object constructor with literal keys.
type vobjExpr struct {
	keys []string
	vals []vexpr
}

func (v *vobjExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	cols := make([]*vector.Col, len(v.vals))
	for i, e := range v.vals {
		c, err := e.eval(vs, b)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return vector.MakeObjects(v.keys, cols, b.n), nil
}

// varrExpr is a square-bracket array constructor (nil body = empty array).
type varrExpr struct{ body vexpr }

func (v *varrExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	if v.body == nil {
		return vector.MakeArrays(nil, b.n), nil
	}
	c, err := v.body.eval(vs, b)
	if err != nil {
		return nil, err
	}
	return vector.MakeArrays(c, b.n), nil
}

// vcallExpr is a whitelisted scalar builtin.
type vcallExpr struct {
	fn   functions.Func
	args []vexpr
}

func (v *vcallExpr) eval(vs *vstate, b *vbatch) (*vector.Col, error) {
	cols := make([]*vector.Col, len(v.args))
	for i, e := range v.args {
		c, err := e.eval(vs, b)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	out, err := vector.Call(v.fn, cols, b.n)
	if err != nil {
		return nil, Errorf("%v", err)
	}
	return out, nil
}

// vop is one pipeline step after the scan: a let binding its column slot,
// or a filter (slot < 0) compacting the batch by its condition column.
// opID is the profiling operator shared with the tuple pipeline's
// evaluator for the same clause.
type vop struct {
	slot int
	expr vexpr
	opID int
}

// vgroupExec is the grouped (or grand-aggregate) tail of a vector
// pipeline.
type vgroupExec struct {
	grand    bool // no group-by: one implicit group over the whole scan
	keyExprs []vexpr
	keySlots []int // main-batch slots the key variables rebind to
	kinds    []vector.AggKind
	aggArgs  []vexpr // evaluated on the main batch, aligned with kinds
	gslots   int     // group-batch width: len(keyExprs) + len(kinds)
	project  vexpr   // return projection over the group batch
	// earlyExit marks an existence test (exists/empty/count-eq-zero): the
	// single grand count only needs to reach one, so the coordinator stops
	// the scan and cancels remaining morsels as soon as a merged partial
	// shows a present row.
	earlyExit bool
}

// vcountBoolExpr finalizes an existence test over the grand count column:
// Bool(n == 0) for empty (and count-eq-zero), Bool(n > 0) for exists.
type vcountBoolExpr struct {
	wantEmpty bool
}

func (v *vcountBoolExpr) eval(_ *vstate, b *vbatch) (*vector.Col, error) {
	in := b.cols[0]
	out := vector.NewCol(b.n)
	for i := 0; i < b.n; i++ {
		n, _ := in.Item(i).(item.Int)
		out.AppendBool((n == 0) == v.wantEmpty)
	}
	return out, nil
}

// vsortExec is the order-by tail of a vector pipeline: every morsel worker
// encodes its rows' sort keys and produces a stably sorted run, and the
// coordinator k-way-merges the runs in morsel index order — so ties resolve
// by scan position and the merged stream is the stable sort of the whole
// scan, identical at every worker count. The return projection is deferred
// to the merged stream: key errors surface before projection errors (as in
// the tuple path, which sorts before projecting), and a bounded top-k never
// projects the tail it discards.
type vsortExec struct {
	keys          []vexpr
	emptyGreatest []bool
	specs         []vector.SortSpec
	topK          int64 // 0 = full sort; otherwise each run truncates to k
	project       vexpr
}

// vjoinExec is the hash equi-join head of a vector pipeline: the left
// (probe) side is the scan, the right (build) side materializes once per
// evaluation into a hash table pre-sized from its cardinality, and every
// morsel probes it, expanding matches left-major in build order — the
// nested loop's output order, as the tuple path's joinEval produces.
type vjoinExec struct {
	rightIn   Iterator
	rightSlot int     // main-batch slot the right variable binds
	leftKeys  []vexpr // evaluated on the main (probe) batch
	rightKeys []vexpr // evaluated on build batches (slot 0 = right var)
}

// vjoinRun is the per-evaluation state of a vector join: the build runs
// lazily on the first non-empty probe morsel (an empty probe side never
// evaluates the right keys, like the tuple path), guarded by a Once so
// concurrent workers block until one build finishes. A build error reaches
// every morsel, so the coordinator surfaces it at the lowest index.
type vjoinRun struct {
	dc    *DynamicContext
	once  sync.Once
	table map[string][]item.Item
	rmask uint64
	err   error
}

// vectorIter is a FLWOR compiled to the columnar backend. Stream splits
// the scan into BatchSize-row morsels and dispatches them to a worker pool
// sized by the engine's executor slots; workers run the filter / project
// kernels independently and grouped pipelines fold per-morsel partial
// aggregation tables that merge in morsel index order. RDD is never
// available (ModeVector is a local mode).
//
// Parallel execution is bit-compatible with a single worker by
// construction: every morsel folds its own partial state and partials
// always merge in scan order, so emit order, aggregate results, and which
// error surfaces ("first error wins": the lowest-indexed failing morsel)
// depend only on the input — never on the worker count or scheduling.
type vectorIter struct {
	planNode
	fallback  Iterator       // tuple pipeline, for multi-item free variables
	in        Iterator       // the scan
	sc        *spark.Context // executor pool configuration + metrics (nil in bare tests)
	workers   int            // morsel worker pool size (Config.Executors)
	nslots    int
	externals []string
	posSlots  []int // slots bound to the 1-based scan position (at / count)
	// prune is the compiler's zone-map pushdown: the prefix of
	// and-conjuncts from the pipeline's leading where run that a
	// segment-backed scan may test against per-segment zone maps to skip
	// whole segments. Empty when the plan has no prunable prefix; unused
	// when the scan is not segment-backed.
	prune   []segment.Predicate
	join    *vjoinExec
	ops     []vop
	group   *vgroupExec
	sort    *vsortExec
	project vexpr // non-group row projection
	// fields/fieldSlots are the top-level fields the pipeline reads off the
	// scan variable by literal key, each compiled to the batch slot at the
	// same index: segment morsels slice the fields' decoded lanes straight
	// into the slots, raw and in-memory morsels decode rows and expand them
	// into the same field lanes. rowSlot is the hidden segment-row-index
	// slot vscanExpr assembles the scan variable from, and what makes a
	// segment morsel fetch every column of its segment, not just fields; it
	// is -1 when no expression reads the variable whole — slot 0 then stays
	// nil in every batch and no row item is ever built.
	fields     []string
	fieldSlots []int
	rowSlot    int

	// Profiling operator indices, -1 when the stage is absent or not
	// registered. They name the same operators the tuple pipeline's
	// profiledClause wrappers record into — only one backend runs per
	// evaluation, so the counts never mix.
	opScan, opJoin, opGroup, opSort, opRoot int
}

func (v *vectorIter) RDD(*DynamicContext) (*spark.RDD[item.Item], error) {
	return nil, Errorf("vector plans execute locally")
}

// resolveExternals resolves the pipeline's free variables against the
// dynamic context into per-evaluation constant columns. A multi-item
// binding cannot ride in a single-valued column: fellBack=true tells the
// caller to re-route the evaluation through the tuple pipeline.
func (v *vectorIter) resolveExternals(dc *DynamicContext) (vs *vstate, fellBack bool, err error) {
	vs = &vstate{ext: make([]*vector.Col, len(v.externals))}
	for i, name := range v.externals {
		seq, rdd, ok := dc.Resolve(name)
		if !ok {
			return nil, false, Errorf("variable $%s is not bound", name)
		}
		if rdd != nil {
			// A cluster-resident binding would materialize through the
			// driver-side scan, as the tuple path's reference does — but a
			// column only carries it when it is empty or a singleton, so
			// stop after two items: that already decides the fallback.
			var items []item.Item
			err := rdd.Scan(func(it item.Item) error {
				items = append(items, it)
				if len(items) > 1 {
					return errLimitReached
				}
				return nil
			})
			if err != nil && err != errLimitReached {
				return nil, false, err
			}
			seq = items
		}
		if len(seq) > 1 {
			return nil, true, nil
		}
		if len(seq) == 1 {
			vs.ext[i] = vector.ConstCol(seq[0])
		} else {
			vs.ext[i] = vector.ConstCol(nil)
		}
	}
	return vs, false, nil
}

func (v *vectorIter) Stream(dc *DynamicContext, yield func(item.Item) error) error {
	vs, fellBack, err := v.resolveExternals(dc)
	if err != nil {
		return err
	}
	if fellBack {
		// Columns are single-valued; a sequence-valued free variable
		// re-routes this evaluation through the tuple pipeline.
		return v.fallback.Stream(dc, yield)
	}
	vs.prof = dc.Profile()
	if v.sc != nil {
		v.sc.AddVectorRun()
		if v.sort != nil {
			if v.sort.topK > 0 {
				v.sc.AddVectorTopKRun()
			} else {
				v.sc.AddVectorSortRun()
			}
		}
	}
	var jr *vjoinRun
	if v.join != nil {
		jr = &vjoinRun{dc: dc}
	}
	if v.sc != nil {
		v.sc.AddVectorWorkers(int64(v.workers))
	}
	vs.prof.SetWorkers(v.workers)
	// Morsel-driven on the ordered runner: the scan produces morsels in
	// scan-index order, workers process them, and the merge folds them on
	// this goroutine in index order, as a left-to-right run would.
	ctx := dc.GoContext()
	st := v.newMergeState()
	decs := make([]*jparse.Decoder, v.workers)
	err = sched.Ordered(ctx, v.workers,
		func(emit func(vmorsel) error) error {
			return v.scanMorsels(dc, func(m vmorsel) error {
				hook("scan", m.idx)
				return emit(m)
			})
		},
		func(w int, m vmorsel) (*vmorselResult, error) {
			if decs[w] == nil {
				decs[w] = v.newDecoder()
			}
			return v.processMorsel(vs, jr, m, decs[w])
		},
		func(_ int, res *vmorselResult) (bool, error) { return v.mergeResult(st, res, yield) },
		vs.prof)
	if err != nil {
		return err
	}
	return v.finish(vs, st, ctx, yield)
}

// testHook, set only by tests, observes the morsel pipeline: "scan" as the
// producer hands morsel n to the runner, "morsel" as a worker starts it.
var testHook func(event string, n int)

func hook(event string, n int) {
	if testHook != nil {
		testHook(event, n)
	}
}

// vmorselResult is one processed morsel: projected rows in scan order, the
// morsel's partial aggregation table, or (for an order-by tail) the
// morsel's sorted run plus the per-spec key type observations the global
// string/number mix check needs.
type vmorselResult struct {
	items     []item.Item
	groups    *vector.Groups
	run       *vector.SortRows
	sawString []bool
	sawNumber []bool
}

// newDecoder returns the JSON decoder of one morsel worker. When no
// expression reads the scan variable whole, raw records decode only the
// fields the pipeline reads (every other member is validated and skipped);
// otherwise they decode whole. Either way the worker's records share shapes.
func (v *vectorIter) newDecoder() *jparse.Decoder {
	if v.rowSlot < 0 {
		return jparse.NewProjectingDecoder(v.fields)
	}
	return jparse.NewDecoder()
}

// decodeRows turns a raw morsel into its item rows, charging the morsel's
// simulated storage round trips and record count exactly as an RDD
// partition task would while scanning. Item morsels pass through.
func (v *vectorIter) decodeRows(m vmorsel, dec *jparse.Decoder) ([]item.Item, error) {
	if m.ends == nil {
		return m.rows, nil
	}
	if v.sc != nil {
		v.sc.SimulateIO(m.blocks)
		v.sc.AddRecordsRead(int64(len(m.ends)))
	}
	rows := make([]item.Item, 0, len(m.ends))
	start := 0
	for _, end := range m.ends {
		it, err := dec.Decode(m.raw[start:end])
		if err != nil {
			return nil, Errorf("json-file: %v", err)
		}
		rows = append(rows, it)
		start = end
	}
	return rows, nil
}

// morselBatch turns one scan morsel into its initial column batch. A
// segment morsel fetches its lanes through the buffer pool — the pool's
// per-segment single-flight makes one worker pay a cold decode and its
// simulated storage round trips while the segment's other morsels ride the
// residency for free — slices the plan's fields straight into the field
// slots and builds no row item: a pipeline that reads the scan variable
// whole gets the row-index column to assemble it from later. Raw and
// in-memory morsels decode rows, expand them into the same field lanes and
// (for a whole reader) pack them into the scan column at slot 0, so the
// compiled expressions see one batch shape regardless of the source.
func (v *vectorIter) morselBatch(m vmorsel, dec *jparse.Decoder) (*vbatch, error) {
	if m.ds != nil {
		fields := v.fields
		if v.rowSlot >= 0 {
			fields = append(m.ds.Meta(m.seg).ColumnNames(), v.fields...)
		}
		cs, coldBlocks, err := m.ds.FetchBatch(m.seg, fields)
		if err != nil {
			return nil, err
		}
		if v.sc != nil {
			if coldBlocks > 0 {
				v.sc.SimulateIO(coldBlocks)
				v.sc.AddSegmentCacheMiss(1)
			} else {
				v.sc.AddSegmentCacheHits(1)
			}
			v.sc.AddRecordsRead(int64(m.n))
		}
		b := &vbatch{n: m.n, cols: make([]*vector.Col, v.nslots)}
		for i, f := range v.fields {
			b.cols[v.fieldSlots[i]] = cs.Col(f).Slice(m.off, m.n)
		}
		if v.rowSlot >= 0 {
			b.src = cs
			rc := vector.NewCol(m.n)
			for i := 0; i < m.n; i++ {
				rc.AppendInt(int64(m.off + i))
			}
			b.cols[v.rowSlot] = rc
		}
		return b, nil
	}
	rows, err := v.decodeRows(m, dec)
	if err != nil {
		return nil, err
	}
	scan := vector.NewCol(len(rows))
	for _, it := range rows {
		scan.AppendItem(it)
	}
	b := &vbatch{n: scan.Len(), cols: make([]*vector.Col, v.nslots)}
	for i, f := range v.fields {
		b.cols[v.fieldSlots[i]] = vector.Lookup(scan, f, b.n)
	}
	if v.rowSlot >= 0 {
		b.cols[0] = scan
	}
	return b, nil
}

// encodeVectorJoinKey encodes one row's equi-join keys from the evaluated
// key columns into buf, mirroring the tuple path's encodeJoinKeys: an
// absent key stops (the row cannot match, and later keys never contribute
// to the type mask), and the mask records each seen key's type tag for the
// cross-side comparability check. Vector key expressions are single-valued
// by construction, so the tuple path's "binds a sequence" error cannot
// arise here.
func encodeVectorJoinKey(keyCols []*vector.Col, row int, buf []byte) (key []byte, mask uint64, ok bool, err error) {
	for i, kc := range keyCols {
		if kc.Absent(row) {
			return buf, mask, false, nil
		}
		sk, e := kc.SortKey(row)
		if e != nil {
			return buf, mask, false, Errorf("join key %d: %v", i+1, e)
		}
		mask |= (1 << uint(sk.Tag)) << (8 * uint(i))
		buf = item.AppendSortKey(buf, sk)
	}
	return buf, mask, true, nil
}

// buildJoinTable materializes the right (build) side once and hashes it by
// encoded key, pre-sizing the table from the scan cardinality. Rows whose
// key is absent drop out (an eq against the empty sequence matches
// nothing); per-bucket rows keep build order so probe expansion reproduces
// the nested loop's right-input order.
func (v *vectorIter) buildJoinTable(vs *vstate, jr *vjoinRun) error {
	j := v.join
	items, err := Materialize(j.rightIn, jr.dc)
	if err != nil {
		return err
	}
	jr.table = make(map[string][]item.Item, len(items))
	var buf []byte
	for start := 0; start < len(items); start += vector.BatchSize {
		end := start + vector.BatchSize
		if end > len(items) {
			end = len(items)
		}
		col := vector.NewCol(end - start)
		for _, it := range items[start:end] {
			col.AppendItem(it)
		}
		rb := &vbatch{n: col.Len(), cols: []*vector.Col{col}}
		keyCols := make([]*vector.Col, len(j.rightKeys))
		for ki, ke := range j.rightKeys {
			kc, err := ke.eval(vs, rb)
			if err != nil {
				return err
			}
			keyCols[ki] = kc
		}
		for i := 0; i < rb.n; i++ {
			key, mask, ok, err := encodeVectorJoinKey(keyCols, i, buf[:0])
			buf = key
			if err != nil {
				return err
			}
			jr.rmask |= mask
			if ok {
				jr.table[string(key)] = append(jr.table[string(key)], items[start+i])
			}
		}
	}
	return nil
}

// probeJoin streams one probe batch through the hash table, expanding each
// left row into one output row per match (left-major, matches in build
// order). The build runs lazily on the first non-empty probe batch; the
// cross-side type comparability check runs per probe row before the
// missing-key skip, exactly as the tuple path orders them.
func (v *vectorIter) probeJoin(vs *vstate, jr *vjoinRun, b *vbatch) (*vbatch, error) {
	if b.n == 0 {
		return b, nil
	}
	jr.once.Do(func() { jr.err = v.buildJoinTable(vs, jr) })
	if jr.err != nil {
		return nil, jr.err
	}
	j := v.join
	keyCols := make([]*vector.Col, len(j.leftKeys))
	for ki, ke := range j.leftKeys {
		kc, err := ke.eval(vs, b)
		if err != nil {
			return nil, err
		}
		keyCols[ki] = kc
	}
	matches := make([][]item.Item, b.n)
	total := 0
	var buf []byte
	for i := 0; i < b.n; i++ {
		key, mask, ok, err := encodeVectorJoinKey(keyCols, i, buf[:0])
		buf = key
		if err != nil {
			return nil, err
		}
		if err := joinKeyTypeConflict(mask, jr.rmask, len(j.leftKeys)); err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		matches[i] = jr.table[string(key)]
		total += len(matches[i])
	}
	if v.sc != nil {
		v.sc.AddVectorJoinRows(int64(total))
	}
	nb := &vbatch{n: total, cols: make([]*vector.Col, len(b.cols)), src: b.src}
	for slot, c := range b.cols {
		if c == nil || slot == j.rightSlot {
			continue
		}
		if c.Const {
			nb.cols[slot] = c
			continue
		}
		oc := vector.NewCol(total)
		for i := 0; i < b.n; i++ {
			it := c.Item(i)
			for range matches[i] {
				oc.AppendItem(it)
			}
		}
		nb.cols[slot] = oc
	}
	rcol := vector.NewCol(total)
	for i := 0; i < b.n; i++ {
		for _, it := range matches[i] {
			rcol.AppendItem(it)
		}
	}
	nb.cols[j.rightSlot] = rcol
	return nb, nil
}

// sortMorsel encodes the batch's order-by keys and produces this morsel's
// stably sorted run (truncated to k for a fused top-k), carrying each
// surviving row's bound column values for the deferred projection.
func (v *vectorIter) sortMorsel(vs *vstate, b *vbatch) (*vmorselResult, error) {
	s := v.sort
	res := &vmorselResult{
		run:       vector.NewSortRows(s.specs),
		sawString: make([]bool, len(s.keys)),
		sawNumber: make([]bool, len(s.keys)),
	}
	keyCols := make([]*vector.Col, len(s.keys))
	for ki, ke := range s.keys {
		kc, err := ke.eval(vs, b)
		if err != nil {
			return nil, err
		}
		keyCols[ki] = kc
	}
	var rowErr error
	for i := 0; i < b.n; i++ {
		keys := make([]item.SortKey, len(keyCols))
		for ki, kc := range keyCols {
			sk, err := kc.OrderKey(i, s.emptyGreatest[ki])
			if err != nil {
				return nil, Errorf("order by: %v", err)
			}
			keys[ki] = sk
			switch sk.Tag {
			case item.TagString:
				res.sawString[ki] = true
			case item.TagNumber:
				res.sawNumber[ki] = true
			}
		}
		row := i
		vals := func() []item.Item {
			vs := make([]item.Item, len(b.cols))
			for slot, c := range b.cols {
				if c != nil {
					vs[slot] = c.Item(row)
				}
			}
			if b.src != nil && b.cols[0] == nil {
				// The deferred projection reads the scan variable after the
				// merge, away from this segment's lanes: assemble the row now —
				// under a top-k, only once it ranks inside the bound.
				it, err := b.scanRow(v.rowSlot, row)
				if err != nil && rowErr == nil {
					rowErr = err
				}
				vs[0] = it
			}
			return vs
		}
		if s.topK > 0 {
			res.run.AppendTopK(keys, int(s.topK), vals)
			continue
		}
		res.run.Append(keys, vals())
	}
	if rowErr != nil {
		return nil, rowErr
	}
	if s.topK == 0 {
		res.run.Sort()
	}
	return res, nil
}

// processMorsel decodes one morsel into a column batch and runs it through
// the pipeline: a join head expands rows against the build table,
// positional slots fill from the morsel's scan indices, lets bind their
// slots, filters compact the batch, and the tail projects the surviving
// rows, folds them into a fresh partial aggregation table, or sorts them
// into a run.
func (v *vectorIter) processMorsel(vs *vstate, jr *vjoinRun, m vmorsel, dec *jparse.Decoder) (*vmorselResult, error) {
	hook("morsel", m.idx)
	if v.sc != nil {
		v.sc.AddVectorMorsels(1)
	}
	// Profiling is per-stage when a profile rides the evaluation; every
	// recording site below no-ops on the nil ops of a nil profile, and
	// time.Now is only called when one is attached.
	prof := vs.prof
	var t0 time.Time
	if prof != nil {
		t0 = time.Now()
	}
	b, err := v.morselBatch(m, dec)
	if err != nil {
		return nil, err
	}
	if len(v.posSlots) > 0 {
		// Every morsel but the last is exactly BatchSize rows, so the
		// 1-based scan position of row i is idx*BatchSize + i + 1.
		base := int64(m.idx) * int64(vector.BatchSize)
		pc := vector.NewCol(b.n)
		for i := 0; i < b.n; i++ {
			pc.AppendInt(base + int64(i) + 1)
		}
		for _, slot := range v.posSlots {
			b.cols[slot] = pc
		}
	}
	if prof != nil {
		op := prof.Op(v.opScan)
		op.AddRows(int64(b.n))
		op.AddBatches(1)
		now := time.Now()
		op.AddWall(now.Sub(t0))
		t0 = now
	}
	if v.join != nil {
		nb, err := v.probeJoin(vs, jr, b)
		if err != nil {
			return nil, err
		}
		b = nb
		if prof != nil {
			op := prof.Op(v.opJoin)
			op.AddRows(int64(b.n))
			op.AddBatches(1)
			now := time.Now()
			op.AddWall(now.Sub(t0))
			t0 = now
		}
	}
	for _, op := range v.ops {
		col, err := op.expr.eval(vs, b)
		if err != nil {
			return nil, err
		}
		if op.slot >= 0 {
			b.cols[op.slot] = col
		} else {
			keep := make([]bool, b.n)
			kept := 0
			for i := 0; i < b.n; i++ {
				if col.EBV(i) {
					keep[i] = true
					kept++
				}
			}
			if kept < b.n {
				b = b.compact(keep, kept)
			}
		}
		if prof != nil {
			pop := prof.Op(op.opID)
			pop.AddRows(int64(b.n))
			pop.AddBatches(1)
			now := time.Now()
			pop.AddWall(now.Sub(t0))
			t0 = now
		}
		if b.n == 0 {
			break
		}
	}
	if v.sort != nil {
		res, err := v.sortMorsel(vs, b)
		if err == nil && prof != nil {
			op := prof.Op(v.opSort)
			op.AddRows(int64(b.n))
			op.AddBatches(1)
			op.AddWall(time.Since(t0))
		}
		return res, err
	}
	res := &vmorselResult{}
	if v.group != nil {
		res.groups = vector.NewGroups(len(v.group.keyExprs), v.group.kinds)
		if b.n > 0 {
			if err := v.updateGroups(vs, b, res.groups); err != nil {
				return nil, err
			}
		}
		if prof != nil {
			// Rows out of a group stage only exist after the global merge;
			// per-morsel we record batches and fold time (emitGroups adds
			// the group cardinality when the merged table projects).
			op := prof.Op(v.opGroup)
			op.AddBatches(1)
			op.AddWall(time.Since(t0))
		}
		return res, nil
	}
	if b.n == 0 {
		return res, nil
	}
	col, err := v.project.eval(vs, b)
	if err != nil {
		return nil, err
	}
	res.items = make([]item.Item, 0, b.n)
	for i := 0; i < b.n; i++ {
		if it := col.Item(i); it != nil {
			res.items = append(res.items, it)
		}
	}
	if prof != nil {
		op := prof.Op(v.opRoot)
		op.AddRows(int64(len(res.items)))
		op.AddBatches(1)
		op.AddWall(time.Since(t0))
	}
	return res, nil
}

// vmergeState is the coordinator's running evaluation state: the merged
// aggregation table, the collected (or running top-k merged) sorted runs,
// and the per-spec key type observations feeding the global mix check.
type vmergeState struct {
	groups    *vector.Groups
	runs      []*vector.SortRows
	topk      *vector.SortRows
	sawString []bool
	sawNumber []bool
}

func (v *vectorIter) newMergeState() *vmergeState {
	st := &vmergeState{}
	if v.sort != nil {
		st.sawString = make([]bool, len(v.sort.keys))
		st.sawNumber = make([]bool, len(v.sort.keys))
	}
	return st
}

// mergeResult folds one morsel's result — in morsel index order — into the
// evaluation: non-group rows yield immediately, partial aggregation tables
// merge into the running table, sorted runs collect (or two-way merge into
// the running top-k, bounding memory to k). stop=true asks the caller to
// cancel the remaining scan: an early-exit existence test is decided.
func (v *vectorIter) mergeResult(st *vmergeState, res *vmorselResult, yield func(item.Item) error) (stop bool, err error) {
	if v.sort != nil {
		for ki := range st.sawString {
			st.sawString[ki] = st.sawString[ki] || res.sawString[ki]
			st.sawNumber[ki] = st.sawNumber[ki] || res.sawNumber[ki]
		}
		if v.sort.topK > 0 {
			if st.topk == nil {
				st.topk = res.run
			} else {
				st.topk = vector.MergeTopK(st.topk, res.run, int(v.sort.topK))
			}
			return false, nil
		}
		st.runs = append(st.runs, res.run)
		return false, nil
	}
	if v.group != nil {
		if st.groups == nil {
			st.groups = res.groups
		} else if err := st.groups.Merge(res.groups); err != nil {
			return false, Errorf("%v", err)
		}
		if v.group.earlyExit && st.groups.GrandCount() > 0 {
			// The existence test is decided; no further morsel can change
			// it, so the scan and the remaining morsels are cancelled.
			return true, nil
		}
		return false, nil
	}
	//rumble:ctxpoll-ok bounded: emits one morsel's batch; the morsel driver polls GoContext between morsels
	for _, it := range res.items {
		if err := yield(it); err != nil {
			return false, err
		}
	}
	return false, nil
}

// finish emits the evaluation's tail after every merged morsel: the merged
// sorted runs (projected in merge order), or the merged aggregation table.
func (v *vectorIter) finish(vs *vstate, st *vmergeState, ctx context.Context, yield func(item.Item) error) error {
	if v.sort != nil {
		return v.finishSort(vs, st, ctx, yield)
	}
	return v.finishGroups(vs, st.groups, ctx, yield)
}

// finishSort runs the global string/number mix check the tuple path applies
// after seeing the whole stream, then k-way merges the per-morsel runs and
// projects the return expression over the merged order in batches.
func (v *vectorIter) finishSort(vs *vstate, st *vmergeState, ctx context.Context, yield func(item.Item) error) error {
	s := v.sort
	for ki := range st.sawString {
		if st.sawString[ki] && st.sawNumber[ki] {
			return Errorf("order by: key %d mixes strings and numbers across the tuple stream", ki+1)
		}
	}
	runs := st.runs
	if s.topK > 0 {
		if st.topk == nil {
			return nil
		}
		runs = []*vector.SortRows{st.topk}
	}
	var rootOp *profile.Op
	var rootStart time.Time
	var rootRows int64
	if vs.prof != nil {
		if rootOp = vs.prof.Op(v.opRoot); rootOp != nil {
			rootStart = time.Now()
		}
	}
	b := &vbatch{cols: make([]*vector.Col, v.nslots)}
	for i := range b.cols {
		b.cols[i] = vector.NewCol(vector.BatchSize)
	}
	flush := func() error {
		if b.n == 0 {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pc, err := s.project.eval(vs, b)
		if err != nil {
			return err
		}
		for i := 0; i < b.n; i++ {
			if it := pc.Item(i); it != nil {
				rootRows++
				if err := yield(it); err != nil {
					return err
				}
			}
		}
		b = &vbatch{cols: make([]*vector.Col, v.nslots)}
		for i := range b.cols {
			b.cols[i] = vector.NewCol(vector.BatchSize)
		}
		return nil
	}
	err := vector.MergeRuns(runs, func(vals []item.Item) error {
		for slot, c := range b.cols {
			c.AppendItem(vals[slot])
		}
		b.n++
		if b.n >= vector.BatchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if rootOp != nil {
		rootOp.AddRows(rootRows)
		rootOp.AddBatches(1)
		rootOp.AddWall(time.Since(rootStart))
	}
	return nil
}

// finishGroups emits the merged aggregation table (if the pipeline has
// one), materializing the implicit group of a grand aggregate first.
func (v *vectorIter) finishGroups(vs *vstate, merged *vector.Groups, ctx context.Context, yield func(item.Item) error) error {
	if v.group == nil {
		return nil
	}
	if merged == nil {
		merged = vector.NewGroups(len(v.group.keyExprs), v.group.kinds)
	}
	if v.group.grand {
		merged.EnsureGrand()
	}
	return v.emitGroups(vs, merged, ctx, yield)
}

// vmorsel is one scan morsel awaiting a worker: a segment slice when the
// source scans segments (the worker fetches the decoded lanes through the
// buffer pool), raw byte records when the source scans raw (the worker
// decodes them), decoded items otherwise.
type vmorsel struct {
	idx  int
	rows []item.Item
	// Raw records: record i is raw[ends[i-1]:ends[i]] — the producer's own
	// copy, because a scanned line is only valid until its yield returns.
	raw    []byte
	ends   []int
	blocks int // simulated storage blocks behind raw, charged by the worker

	// Segment-backed scan: the morsel is rows [off, off+n) of segment seg
	// in ds. ds==nil means a raw or item morsel.
	ds     *segment.Dataset
	seg    int
	off, n int
}

// scanMorsels runs the scan on the calling goroutine, cutting it into
// BatchSize-record morsels handed to emit in scan-index order. The input is
// asked once what it reads this evaluation: segments, raw JSON-Lines splits
// (whose decode the workers own), or neither — then its items stream.
func (v *vectorIter) scanMorsels(dc *DynamicContext, emit func(m vmorsel) error) error {
	if src, ok := v.in.(storageScan); ok {
		in, storage, err := src.resolveScan(dc)
		if err != nil {
			in.op.AddBatches(1) // a storage scan that failed before reading
			return err
		}
		if in.ingest != nil {
			// This evaluation paid the source's first touch: say so on its
			// scan line.
			dc.Profile().Op(v.opScan).SetNote(in.ingest.String())
		}
		switch {
		case in.ds != nil:
			return v.scanSegments(in.ds, emit)
		case storage:
			return v.scanRaw(dc, in, emit)
		}
	}
	idx := 0
	var rows []item.Item
	err := v.in.Stream(dc, func(it item.Item) error {
		if rows == nil {
			rows = make([]item.Item, 0, vector.BatchSize)
		}
		rows = append(rows, it)
		if len(rows) >= vector.BatchSize {
			m := vmorsel{idx: idx, rows: rows}
			rows = nil
			if err := emit(m); err != nil {
				return err
			}
			idx++
		}
		return nil
	})
	if err == nil && len(rows) > 0 {
		err = emit(vmorsel{idx: idx, rows: rows})
	}
	return err
}

// scanRaw reads the input's JSON-Lines splits and cuts their records into
// raw morsels, each the producer's own copy: the workers decode them in
// parallel and charge each morsel the storage blocks its records crossed
// while it filled, rounded by dfs.Accountant exactly as dfs.ReadLines
// rounds a split — the trailing partial block once per scan, on the last
// morsel. The records read, one batch and the wall time go to the profiled
// source's operator.
func (v *vectorIter) scanRaw(dc *DynamicContext, in scanInput, emit func(m vmorsel) error) error {
	var start time.Time
	if in.op != nil {
		start = time.Now()
	}
	var (
		idx, rawCap, blocks int
		records             int64
		raw                 []byte
		ends                []int
		acct                dfs.Accountant
	)
	err := readSplits(dc.GoContext(), in.splits, func(line []byte) error {
		records++
		if ends == nil {
			// A morsel's records are about as long as the last one's.
			raw, ends = make([]byte, 0, rawCap), make([]int, 0, vector.BatchSize)
		}
		raw = append(raw, line...)
		ends = append(ends, len(raw))
		blocks += acct.Add(int64(len(line)) + 1)
		if len(ends) >= vector.BatchSize {
			m := vmorsel{idx: idx, raw: raw, ends: ends, blocks: blocks}
			rawCap = len(raw) + len(raw)/8
			raw, ends, blocks = nil, nil, 0
			if err := emit(m); err != nil {
				return err
			}
			idx++
		}
		return nil
	})
	if err == nil && len(ends) > 0 {
		err = emit(vmorsel{idx: idx, raw: raw, ends: ends, blocks: blocks + acct.Finish()})
	}
	if in.op != nil {
		in.op.AddRows(records)
		in.op.AddBatches(1)
		in.op.AddWall(time.Since(start))
	}
	return err
}

// scanSegments cuts a segment-backed dataset into BatchSize-row morsels.
// The producer touches metadata only: pushed-down predicates run against
// each segment's zone maps first, and a provably irrelevant segment is
// skipped before any of its rows is fetched or decoded (SegmentsSkipped
// counts them; SegmentsRead counts the rest). Morsel indices stay
// contiguous across skips, which is safe because the compiler never
// records prune predicates on positional pipelines — and segment.Skip
// guarantees a skipped segment contributes no rows and no errors, so
// emit order and error selection match an unpruned scan exactly. A full
// segment holds segment.Rows = 4*BatchSize rows, so every morsel but the
// final segment's tail is exactly BatchSize rows, as the positional
// columns require.
func (v *vectorIter) scanSegments(ds *segment.Dataset, emit func(m vmorsel) error) error {
	idx := 0
	for si := 0; si < ds.NumSegments(); si++ {
		meta := ds.Meta(si)
		if len(v.prune) > 0 && segment.Skip(meta, v.prune) {
			if v.sc != nil {
				v.sc.AddSegmentsSkipped(1)
			}
			continue
		}
		if v.sc != nil {
			v.sc.AddSegmentsRead(1)
		}
		for off := 0; off < meta.Rows; off += vector.BatchSize {
			n := meta.Rows - off
			if n > vector.BatchSize {
				n = vector.BatchSize
			}
			if err := emit(vmorsel{idx: idx, ds: ds, seg: si, off: off, n: n}); err != nil {
				return err
			}
			idx++
		}
	}
	return nil
}

// updateGroups binds the grouping keys (left to right, each visible to the
// specs after it), evaluates the aggregate arguments, and folds the batch
// into the hash table.
func (v *vectorIter) updateGroups(vs *vstate, b *vbatch, groups *vector.Groups) error {
	g := v.group
	keyCols := make([]*vector.Col, len(g.keyExprs))
	for i, ke := range g.keyExprs {
		col, err := ke.eval(vs, b)
		if err != nil {
			return err
		}
		keyCols[i] = col
		b.cols[g.keySlots[i]] = col
	}
	aggCols := make([]*vector.Col, len(g.aggArgs))
	for i, ae := range g.aggArgs {
		col, err := ae.eval(vs, b)
		if err != nil {
			return err
		}
		aggCols[i] = col
	}
	if err := groups.Update(keyCols, aggCols, b.n); err != nil {
		return Errorf("%v", err)
	}
	return nil
}

// emitGroups builds group batches (keys plus finalized aggregates) in
// first-seen order and projects the return expression over them.
func (v *vectorIter) emitGroups(vs *vstate, groups *vector.Groups, ctx context.Context, yield func(item.Item) error) error {
	g := v.group
	nk := len(g.keyExprs)
	var rootOp *profile.Op
	var rootStart time.Time
	var rootRows int64
	if vs.prof != nil {
		// The merged table's cardinality is the group stage's row count;
		// the projected output rows belong to the whole-FLWOR operator.
		vs.prof.Op(v.opGroup).AddRows(int64(groups.Len()))
		if rootOp = vs.prof.Op(v.opRoot); rootOp != nil {
			rootStart = time.Now()
		}
	}
	for start := 0; start < groups.Len(); start += vector.BatchSize {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		end := start + vector.BatchSize
		if end > groups.Len() {
			end = groups.Len()
		}
		gb := &vbatch{n: end - start, cols: make([]*vector.Col, g.gslots)}
		for ki := 0; ki < nk; ki++ {
			col := vector.NewCol(gb.n)
			for gi := start; gi < end; gi++ {
				col.AppendItem(groups.Key(gi, ki))
			}
			gb.cols[ki] = col
		}
		for j := range g.kinds {
			col := vector.NewCol(gb.n)
			for gi := start; gi < end; gi++ {
				res, err := groups.Agg(gi, j)
				if err != nil {
					return Errorf("%v", err)
				}
				col.AppendItem(res)
			}
			gb.cols[nk+j] = col
		}
		pc, err := g.project.eval(vs, gb)
		if err != nil {
			return err
		}
		for i := 0; i < gb.n; i++ {
			if it := pc.Item(i); it != nil {
				rootRows++
				if err := yield(it); err != nil {
					return err
				}
			}
		}
	}
	if rootOp != nil {
		rootOp.AddRows(rootRows)
		rootOp.AddBatches(1)
		rootOp.AddWall(time.Since(rootStart))
	}
	return nil
}

// vexternals interns the pipeline's free variables. It is shared between
// the slot environments of one plan (a join's probe and build sides), so a
// free variable resolves once per evaluation wherever it is referenced.
type vexternals struct {
	idx   map[string]int
	names []string
}

func (ex *vexternals) ref(name string) *vextExpr {
	if idx, ok := ex.idx[name]; ok {
		return &vextExpr{idx: idx}
	}
	idx := len(ex.names)
	ex.names = append(ex.names, name)
	ex.idx[name] = idx
	return &vextExpr{idx: idx}
}

// vcomp compiles vector expressions against a slot environment. The main
// environment covers the scan variable and let bindings; a grouped
// pipeline compiles its return against a second environment of key-
// variable and aggregate-result slots, and a join compiles its build-side
// keys against an environment whose slot 0 is the right variable.
type vcomp struct {
	c      *comp
	slots  map[string]int
	nslots int
	ext    *vexternals

	// The scan variable (empty on a join's build side, and once a later
	// clause rebinds the name): $scanVar.f compiles to a direct read of
	// field f's slot, and a bare $scanVar to a vscanExpr over rowSlot — the
	// hidden row-index slot, allocated by the first whole read, -1 until
	// then.
	scanVar    string
	fieldSlots map[string]int
	fields     []string // allocation order, parallel to the slots handed out
	slotList   []int
	rowSlot    int
}

func newVcomp(c *comp, ext *vexternals) *vcomp {
	return &vcomp{c: c, slots: map[string]int{}, ext: ext, fieldSlots: map[string]int{}, rowSlot: -1}
}

func (vc *vcomp) bind(name string) int {
	if name == vc.scanVar {
		vc.scanVar = "" // shadowed: the name no longer reads the scan
	}
	slot := vc.nslots
	vc.nslots++
	vc.slots[name] = slot
	return slot
}

// bindField allocates (or reuses) the batch slot carrying one projected
// field of the scan variable. Fields live outside the variable namespace:
// they are filled by the scan itself, never by a let.
func (vc *vcomp) bindField(f string) int {
	if slot, ok := vc.fieldSlots[f]; ok {
		return slot
	}
	slot := vc.nslots
	vc.nslots++
	vc.fieldSlots[f] = slot
	vc.fields = append(vc.fields, f)
	vc.slotList = append(vc.slotList, slot)
	return slot
}

// install copies the compiled environment onto the iterator: slot count,
// free-variable names, the scan's field slots and its row-index slot.
func (vc *vcomp) install(it *vectorIter) {
	it.nslots = vc.nslots
	it.externals = vc.ext.names
	it.fields = vc.fields
	it.fieldSlots = vc.slotList
	it.rowSlot = vc.rowSlot
}

// bindScan binds the scan variable at slot 0 and pre-binds the plan's
// projected fields in their sorted order.
func (vc *vcomp) bindScan(name string, vp *compiler.VectorPlan) {
	vc.bind(name)
	vc.scanVar = name
	for _, f := range vp.Columns {
		vc.bindField(f)
	}
}

// isScanVar reports whether e is a bare reference to the scan variable.
func (vc *vcomp) isScanVar(e ast.Expr) bool {
	vr, ok := e.(*ast.VarRef)
	return ok && vc.scanVar != "" && vr.Name == vc.scanVar
}

// scanRows reads the scan variable whole, allocating the hidden row-index
// slot on first use.
func (vc *vcomp) scanRows() vexpr {
	if vc.rowSlot < 0 {
		vc.rowSlot = vc.nslots
		vc.nslots++
	}
	return &vscanExpr{rowSlot: vc.rowSlot}
}

// vectorWorkers is the morsel worker pool size: the engine's executor
// slots, the same knob that bounds concurrent partition tasks on the
// RDD/DataFrame paths.
func (c *comp) vectorWorkers() int {
	if c.env.Spark == nil {
		return 1
	}
	return c.env.Spark.Conf().Executors
}

// vaggSpec names the grand aggregate a vector pipeline folds into, and the
// plan node the resulting iterator reports as: the aggregate call for
// count/sum/avg/min/max/exists/empty, or the comparison node for a fused
// count(...) eq 0 existence test.
type vaggSpec struct {
	name string
	pn   planNode
}

// compileVector builds the columnar plan for a FLWOR the compiler
// annotated ModeVector. clauses is the clause list after cluster-bound
// lets were peeled; fallback is a tuple-path iterator producing identical
// results for the same expression. When agg is non-nil the FLWOR is the
// argument of that grand aggregate and the pipeline ends in a
// single-group fold of the return projection instead of row emission. Any
// unexpected shape returns an error and the caller keeps the tuple path.
func (c *comp) compileVector(f *ast.FLWOR, clauses []ast.Clause, fallback Iterator, agg *vaggSpec) (Iterator, error) {
	if len(clauses) == 0 {
		return nil, Errorf("vector: empty clause list")
	}
	vp := c.info.VectorPlans[f]
	if vp == nil {
		return nil, Errorf("vector: no plan recorded for this FLWOR")
	}
	ext := &vexternals{idx: map[string]int{}}
	vc := newVcomp(c, ext)
	pn := c.pn(f)
	if agg != nil {
		pn = agg.pn
	}
	it := &vectorIter{planNode: pn, fallback: fallback,
		sc: c.env.Spark, workers: c.vectorWorkers(),
		opScan: -1, opJoin: -1, opGroup: -1, opSort: -1, opRoot: -1}

	var rest []ast.Clause
	if jp := c.info.Joins[f]; vp.Join && jp != nil {
		// Join head: the left side is the scan (slot 0), the right side
		// compiles against its own single-slot environment for the build.
		in, err := c.compile(jp.Left.In)
		if err != nil {
			return nil, err
		}
		it.in = in
		vc.bindScan(jp.Left.Var, vp) // slot 0: the probe (scan) column
		j := &vjoinExec{rightSlot: vc.bind(jp.Right.Var)}
		rightIn, err := c.compile(jp.Right.In)
		if err != nil {
			return nil, err
		}
		j.rightIn = rightIn
		rvc := newVcomp(c, ext)
		rvc.bind(jp.Right.Var) // slot 0 of build batches
		for _, ke := range jp.LeftKeys {
			e, err := vc.compileExpr(ke)
			if err != nil {
				return nil, err
			}
			j.leftKeys = append(j.leftKeys, e)
		}
		for _, ke := range jp.RightKeys {
			e, err := rvc.compileExpr(ke)
			if err != nil {
				return nil, err
			}
			j.rightKeys = append(j.rightKeys, e)
		}
		it.join = j
		// Profiling ops are dedup lookups: the tuple pipeline registered
		// the same clauses (same AST keys) when it compiled first.
		it.opJoin = c.op(jp, "join", -1)
		for _, cond := range jp.Residual {
			e, err := vc.compileExpr(cond)
			if err != nil {
				return nil, err
			}
			it.ops = append(it.ops, vop{slot: -1, expr: e, opID: c.op(cond, "where", -1)})
		}
		rest = clauses[3:]
	} else {
		head, ok := clauses[0].(*ast.ForClause)
		if !ok {
			return nil, Errorf("vector: pipeline must start with a for clause")
		}
		in, err := c.compile(head.In)
		if err != nil {
			return nil, err
		}
		it.in = in
		vc.bindScan(head.Var, vp) // slot 0: the scan column
		it.opScan = c.op(head, "for $"+head.Var, c.opOf(in, head.In))
		if head.PosVar != "" {
			it.posSlots = append(it.posSlots, vc.bind(head.PosVar))
		}
		// Zone-map pushdown: the plan's prune prefix becomes the segment
		// predicates a segment-backed scan tests before touching rows. The
		// where clauses themselves still compile below — pruning only skips
		// segments no row of which could pass (or error in) the prefix, so
		// running the full filter over the surviving segments is what keeps
		// results identical.
		for _, p := range vp.Prune {
			it.prune = append(it.prune, segment.Predicate{Field: p.Field, Op: p.Op, Lit: p.Lit})
		}
		rest = clauses[1:]
	}

	var group *ast.GroupByClause
	var orderBy *ast.OrderByClause
	for ci := 0; ci < len(rest); ci++ {
		switch n := rest[ci].(type) {
		case *ast.LetClause:
			e, err := vc.compileExpr(n.Value)
			if err != nil {
				return nil, err
			}
			it.ops = append(it.ops, vop{slot: vc.bind(n.Var), expr: e, opID: c.op(n, "let $"+n.Var, -1)})
		case *ast.WhereClause:
			e, err := vc.compileExpr(n.Cond)
			if err != nil {
				return nil, err
			}
			it.ops = append(it.ops, vop{slot: -1, expr: e, opID: c.op(n, "where", -1)})
		case *ast.CountClause:
			// Positional: the clause precedes every filter (the planner
			// declines it otherwise), so the count is the scan position.
			it.posSlots = append(it.posSlots, vc.bind(n.Var))
		case *ast.GroupByClause:
			group = n
		case *ast.OrderByClause:
			orderBy = n
			if vp.TopK > 0 {
				// The trailing count + where pair is fused into the sort
				// bound; neither clause materializes.
				ci += 2
			}
		default:
			return nil, Errorf("vector: unsupported clause %T", rest[ci])
		}
	}
	if group != nil {
		it.opGroup = c.op(group, "group by", -1)
	}
	if orderBy != nil {
		it.opSort = c.op(orderBy, "order by", -1)
	}
	if agg == nil {
		// The whole-FLWOR operator records the pipeline's emitted rows;
		// grand aggregates leave it to their enclosing profiled wrapper.
		it.opRoot = c.op(f, "flwor", -1)
	}
	if agg != nil {
		if group != nil || orderBy != nil {
			return nil, Errorf("vector: grand aggregate over a grouped pipeline")
		}
		var proj vexpr
		if vc.isScanVar(f.Return) && (agg.name == "count" || agg.name == "exists" || agg.name == "empty") {
			// Counting scan rows needs their presence, never their contents.
			proj = onesExpr()
		} else {
			var err error
			if proj, err = vc.compileExpr(f.Return); err != nil {
				return nil, err
			}
		}
		switch agg.name {
		case "exists", "empty":
			// Fold the projection into a grand count and finalize it to a
			// boolean; the coordinator stops the scan once it is positive.
			it.group = &vgroupExec{
				grand:     true,
				earlyExit: true,
				kinds:     []vector.AggKind{vector.AggCount},
				aggArgs:   []vexpr{proj},
				gslots:    1,
				project:   &vcountBoolExpr{wantEmpty: agg.name == "empty"},
			}
		default:
			kind, ok := functions.AggregateKind(agg.name)
			if !ok {
				return nil, Errorf("vector: unsupported grand aggregate %s", agg.name)
			}
			it.group = &vgroupExec{
				grand:   true,
				kinds:   []vector.AggKind{kind},
				aggArgs: []vexpr{proj},
				gslots:  1,
				project: &vcolExpr{slot: 0},
			}
		}
		vc.install(it)
		return it, nil
	}
	if orderBy != nil {
		s := &vsortExec{topK: vp.TopK}
		for _, spec := range orderBy.Specs {
			ke, err := vc.compileExpr(spec.Expr)
			if err != nil {
				return nil, err
			}
			s.keys = append(s.keys, ke)
			s.emptyGreatest = append(s.emptyGreatest, spec.EmptyGreatest)
			s.specs = append(s.specs, vector.SortSpec{Descending: spec.Descending})
		}
		proj, err := vc.compileExpr(f.Return)
		if err != nil {
			return nil, err
		}
		s.project = proj
		it.sort = s
		vc.install(it)
		return it, nil
	}
	if group == nil {
		proj, err := vc.compileExpr(f.Return)
		if err != nil {
			return nil, err
		}
		it.project = proj
		vc.install(it)
		return it, nil
	}
	ge := &vgroupExec{}
	for _, spec := range group.Specs {
		var ke vexpr
		if spec.Expr != nil {
			e, err := vc.compileExpr(spec.Expr)
			if err != nil {
				return nil, err
			}
			ke = e
		} else {
			if _, ok := vc.slots[spec.Var]; !ok {
				return nil, Errorf("vector: group key $%s is not a pipeline column", spec.Var)
			}
			ke, _ = vc.compileVarRef(&ast.VarRef{Name: spec.Var})
		}
		ge.keyExprs = append(ge.keyExprs, ke)
		ge.keySlots = append(ge.keySlots, vc.bind(spec.Var))
	}
	gc := &vgroupComp{main: vc, ge: ge, keys: map[string]int{}}
	for i, spec := range group.Specs {
		gc.keys[spec.Var] = i
	}
	proj, err := gc.compileExpr(f.Return)
	if err != nil {
		return nil, err
	}
	ge.project = proj
	ge.gslots = len(ge.keyExprs) + len(ge.kinds)
	it.group = ge
	vc.install(it)
	return it, nil
}

// vexprEnv resolves the two environment-dependent leaves of the shared
// scalar grammar: variable references and special function calls. The
// main environment (vcomp) and the grouped-return environment (vgroupComp)
// differ only here; everything else compiles through compileVExpr.
type vexprEnv interface {
	compileVarRef(n *ast.VarRef) (vexpr, error)
	// compileSpecialCall intercepts calls before the scalar-builtin
	// whitelist; handled=false defers to the shared path.
	compileSpecialCall(n *ast.FunctionCall) (ve vexpr, handled bool, err error)
	// compileScanField intercepts a literal-key lookup on a variable before
	// the generic vlookupExpr: $scanVar.key reads the field's decoded lane
	// straight from its batch slot.
	compileScanField(varName, key string) (vexpr, bool)
}

// compileVExpr compiles the shared scalar expression grammar against env.
func compileVExpr(env vexprEnv, e ast.Expr) (vexpr, error) {
	switch n := e.(type) {
	case *ast.Literal:
		return &vlitExpr{col: vector.ConstCol(n.Value)}, nil
	case *ast.VarRef:
		return env.compileVarRef(n)
	case *ast.ObjectLookup:
		key, ok := literalStringKey(n.Key)
		if !ok {
			return nil, Errorf("vector: dynamic object lookup key")
		}
		if vr, isVar := n.Input.(*ast.VarRef); isVar {
			if ve, handled := env.compileScanField(vr.Name, key); handled {
				return ve, nil
			}
		}
		in, err := compileVExpr(env, n.Input)
		if err != nil {
			return nil, err
		}
		return &vlookupExpr{in: in, key: key}, nil
	case *ast.Comparison:
		op, ok := vector.ParseCmpOp(string(n.Op))
		if !ok || n.General {
			return nil, Errorf("vector: unsupported comparison %s", n.Op)
		}
		l, err := compileVExpr(env, n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileVExpr(env, n.R)
		if err != nil {
			return nil, err
		}
		return &vcmpExpr{op: op, l: l, r: r}, nil
	case *ast.Arith:
		l, err := compileVExpr(env, n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileVExpr(env, n.R)
		if err != nil {
			return nil, err
		}
		return &varithExpr{op: n.Op, l: l, r: r}, nil
	case *ast.Logic:
		l, err := compileVExpr(env, n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileVExpr(env, n.R)
		if err != nil {
			return nil, err
		}
		return &vlogicExpr{isAnd: n.IsAnd, l: l, r: r}, nil
	case *ast.Unary:
		in, err := compileVExpr(env, n.Operand)
		if err != nil {
			return nil, err
		}
		return &vunaryExpr{minus: n.Minus, in: in}, nil
	case *ast.ObjectConstructor:
		oe := &vobjExpr{}
		for i := range n.Keys {
			key, ok := literalStringKey(n.Keys[i])
			if !ok {
				return nil, Errorf("vector: dynamic object constructor key")
			}
			v, err := compileVExpr(env, n.Values[i])
			if err != nil {
				return nil, err
			}
			oe.keys = append(oe.keys, key)
			oe.vals = append(oe.vals, v)
		}
		return oe, nil
	case *ast.ArrayConstructor:
		if n.Body == nil {
			return &varrExpr{}, nil
		}
		body, err := compileVExpr(env, n.Body)
		if err != nil {
			return nil, err
		}
		return &varrExpr{body: body}, nil
	case *ast.FunctionCall:
		if ve, handled, err := env.compileSpecialCall(n); handled || err != nil {
			return ve, err
		}
		if !compiler.VectorScalarFunctions[n.Name] {
			return nil, Errorf("vector: unsupported function %s", n.Name)
		}
		fn, ok := functions.Lookup(n.Name)
		if !ok {
			return nil, Errorf("vector: unknown function %s", n.Name)
		}
		ce := &vcallExpr{fn: fn}
		for _, a := range n.Args {
			ae, err := compileVExpr(env, a)
			if err != nil {
				return nil, err
			}
			ce.args = append(ce.args, ae)
		}
		return ce, nil
	default:
		return nil, Errorf("vector: unsupported expression %T", e)
	}
}

// compileExpr compiles a scalar expression against the main environment.
func (vc *vcomp) compileExpr(e ast.Expr) (vexpr, error) { return compileVExpr(vc, e) }

// compileVarRef implements vexprEnv: pipeline bindings are columns, free
// variables per-evaluation constants.
func (vc *vcomp) compileVarRef(n *ast.VarRef) (vexpr, error) {
	if vc.isScanVar(n) {
		return vc.scanRows(), nil
	}
	if slot, ok := vc.slots[n.Name]; ok {
		return &vcolExpr{slot: slot}, nil
	}
	return vc.ext.ref(n.Name), nil
}

// compileSpecialCall implements vexprEnv: the pipeline body has no
// special calls.
func (vc *vcomp) compileSpecialCall(*ast.FunctionCall) (vexpr, bool, error) {
	return nil, false, nil
}

// compileScanField implements vexprEnv: a field of the scan variable reads
// its decoded lane's batch slot.
func (vc *vcomp) compileScanField(varName, key string) (vexpr, bool) {
	if vc.scanVar == "" || varName != vc.scanVar {
		return nil, false
	}
	return &vcolExpr{slot: vc.bindField(key)}, true
}

// vgroupComp compiles the return expression of a grouped pipeline against
// the group-batch environment: key variables map to the leading group
// slots, aggregate calls allocate accumulator slots (their arguments
// compile against the main environment), and free variables stay external.
type vgroupComp struct {
	main *vcomp
	ge   *vgroupExec
	keys map[string]int // key var → group slot
}

func (gc *vgroupComp) compileExpr(e ast.Expr) (vexpr, error) { return compileVExpr(gc, e) }

// compileVarRef implements vexprEnv for the grouped return: only key
// variables and free variables are readable; non-key pipeline variables
// reach their values exclusively through aggregates.
func (gc *vgroupComp) compileVarRef(n *ast.VarRef) (vexpr, error) {
	if slot, ok := gc.keys[n.Name]; ok {
		return &vcolExpr{slot: slot}, nil
	}
	if _, bound := gc.main.slots[n.Name]; bound {
		return nil, Errorf("vector: non-key variable $%s outside an aggregate", n.Name)
	}
	return gc.main.ext.ref(n.Name), nil
}

// compileSpecialCall implements vexprEnv for the grouped return:
// #count-of and the aggregate builtins become accumulator slots.
func (gc *vgroupComp) compileSpecialCall(n *ast.FunctionCall) (vexpr, bool, error) {
	if base, ok := compiler.CountOfVar(n); ok {
		if gc.main.scanVar != "" && base == gc.main.scanVar {
			// Counting the scan variable needs row presence only: fold an
			// always-present constant instead of assembling rows.
			return gc.aggSlot(vector.AggCount, onesExpr()), true, nil
		}
		slot, bound := gc.main.slots[base]
		if !bound {
			return nil, true, Errorf("vector: #count-of over unbound $%s", base)
		}
		return gc.aggSlot(vector.AggCount, &vcolExpr{slot: slot}), true, nil
	}
	if kind, isAgg := functions.AggregateKind(n.Name); isAgg && len(n.Args) == 1 {
		if kind == vector.AggCount && gc.main.isScanVar(n.Args[0]) {
			return gc.aggSlot(vector.AggCount, onesExpr()), true, nil
		}
		arg, err := gc.main.compileExpr(n.Args[0])
		if err != nil {
			return nil, true, err
		}
		return gc.aggSlot(kind, arg), true, nil
	}
	return nil, false, nil
}

// compileScanField implements vexprEnv for the grouped return: aggregate
// arguments compile against the main environment, so a scan-field lookup
// reaching this environment directly can only sit outside an aggregate —
// defer to the generic path, whose compileVarRef rejects it.
func (gc *vgroupComp) compileScanField(varName, key string) (vexpr, bool) {
	return nil, false
}

// onesExpr broadcasts an always-present constant: the count-aggregate
// argument standing in for "one per row" when the plan never materializes
// the scan variable itself.
func onesExpr() vexpr {
	return &vlitExpr{col: vector.ConstCol(item.Bool(true))}
}

// aggSlot allocates one accumulator and returns the group-batch column
// reading its finalized value.
func (gc *vgroupComp) aggSlot(kind vector.AggKind, arg vexpr) vexpr {
	idx := len(gc.ge.kinds)
	gc.ge.kinds = append(gc.ge.kinds, kind)
	gc.ge.aggArgs = append(gc.ge.aggArgs, arg)
	return &vcolExpr{slot: len(gc.keys) + idx}
}

// literalStringKey extracts a compile-time string key.
func literalStringKey(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.Literal)
	if !ok {
		return "", false
	}
	s, ok := lit.Value.(item.Str)
	if !ok {
		return "", false
	}
	return string(s), true
}
