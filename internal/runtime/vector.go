package runtime

import (
	"context"
	"errors"
	"sync"
	"time"

	"rumble/internal/ast"
	"rumble/internal/compiler"
	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/profile"
	"rumble/internal/sched"
	"rumble/internal/segment"
	"rumble/internal/spark"
	"rumble/internal/vector"
)

// This file bridges the columnar backend (internal/vector) into the
// iterator plan: compileVector wraps the kernels the compiler built for a
// FLWOR it annotated ModeVector (compiler.Info.CompileVector) into a
// vectorIter that scans its input into typed column batches and pushes them
// through filter / project / group / sort / join executors, instead of
// streaming tuple-at-a-time through the clause chain.
//
// The tuple pipeline is always compiled alongside and kept as a fallback:
// a free variable that resolves to a multi-item sequence at run time (a
// value no single-valued column can carry) re-routes that evaluation
// through the tuple path, so results are identical either way.

// vstate is per-evaluation state: free variables resolved once against the
// dynamic context and broadcast as constant columns, plus the evaluation's
// profile (nil when profiling is off — the per-morsel fast path is a
// single nil check).
type vstate struct {
	ext  []*vector.Col
	prof *profile.Profile
}

// eval evaluates a compiled expression over b, raising a kernel's error as
// the query's dynamic error.
func (vs *vstate) eval(e vector.Expr, b *vector.Batch) (*vector.Col, error) {
	col, err := e.Eval(vs.ext, b)
	if ke, ok := err.(*vector.KernelError); ok {
		return nil, Errorf("%v", ke.Err)
	}
	return col, err
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
	k        *compiler.VectorKernels
	fallback Iterator       // tuple pipeline, for multi-item free variables
	in       Iterator       // the scan (a join's probe side)
	rightIn  Iterator       // a join's build side
	sc       *spark.Context // executor pool configuration + metrics (nil in bare tests)
	workers  int            // morsel worker pool size (Config.Executors)
	// prune is the compiler's zone-map pushdown: the prefix of
	// and-conjuncts from the pipeline's leading where run that a
	// segment-backed scan may test against per-segment zone maps to skip
	// whole segments. Empty when the plan has no prunable prefix; unused
	// when the scan is not segment-backed.
	prune []segment.Predicate

	// Profiling operator indices, -1 when the stage is absent or not
	// registered: opIDs[i] is k.Ops[i]'s. They name the same operators the
	// tuple pipeline's profiledClause wrappers record into — only one
	// backend runs per evaluation, so the counts never mix.
	opIDs                                   []int
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
	vs = &vstate{ext: make([]*vector.Col, len(v.k.Externals))}
	for i, name := range v.k.Externals {
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
		if v.k.Sort != nil {
			if v.k.Plan.TopK > 0 {
				v.sc.AddVectorTopKRun()
			} else {
				v.sc.AddVectorSortRun()
			}
		}
	}
	var jr *vjoinRun
	if v.k.Join != nil {
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
		if g := v.k.Group; g != nil && g.EarlyExit && !cancelled(ctx, err) {
			// An existence test is decided by its first surviving row, as
			// the tuple path's streaming fold and the cluster's Take(1)
			// decide it. A morsel may have failed on a row past that one,
			// so the tuple pipeline gives the answer. Nothing was emitted
			// yet: the fold yields only in finish.
			return v.fallback.Stream(dc, yield)
		}
		return err
	}
	return v.finish(vs, st, ctx, yield)
}

// cancelled reports whether err ends the evaluation because its Go context
// was cancelled or timed out.
func cancelled(ctx context.Context, err error) bool {
	return (ctx != nil && ctx.Err() != nil) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
	if v.k.RowSlot < 0 {
		return jparse.NewProjectingDecoder(v.k.Fields)
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
func (v *vectorIter) morselBatch(m vmorsel, dec *jparse.Decoder) (*vector.Batch, error) {
	k := v.k
	if m.ds != nil {
		fields := k.Fields
		if k.RowSlot >= 0 {
			fields = append(m.ds.Meta(m.seg).ColumnNames(), k.Fields...)
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
		b := &vector.Batch{N: m.n, Cols: make([]*vector.Col, k.Slots)}
		for i, f := range k.Fields {
			b.Cols[k.FieldSlots[i]] = cs.Col(f).Slice(m.off, m.n)
		}
		if k.RowSlot >= 0 {
			b.Src = cs
			rc := vector.NewCol(m.n)
			for i := 0; i < m.n; i++ {
				rc.AppendInt(int64(m.off + i))
			}
			b.Cols[k.RowSlot] = rc
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
	b := &vector.Batch{N: scan.Len(), Cols: make([]*vector.Col, k.Slots)}
	for i, f := range k.Fields {
		b.Cols[k.FieldSlots[i]] = vector.Lookup(scan, f, b.N)
	}
	if k.RowSlot >= 0 {
		b.Cols[0] = scan
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
	j := v.k.Join
	items, err := Materialize(v.rightIn, jr.dc)
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
		rb := &vector.Batch{N: col.Len(), Cols: []*vector.Col{col}}
		keyCols, err := vs.evalAll(j.RightKeys, rb)
		if err != nil {
			return err
		}
		for i := 0; i < rb.N; i++ {
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
func (v *vectorIter) probeJoin(vs *vstate, jr *vjoinRun, b *vector.Batch) (*vector.Batch, error) {
	if b.N == 0 {
		return b, nil
	}
	jr.once.Do(func() { jr.err = v.buildJoinTable(vs, jr) })
	if jr.err != nil {
		return nil, jr.err
	}
	j := v.k.Join
	keyCols, err := vs.evalAll(j.LeftKeys, b)
	if err != nil {
		return nil, err
	}
	matches := make([][]item.Item, b.N)
	total := 0
	var buf []byte
	for i := 0; i < b.N; i++ {
		key, mask, ok, err := encodeVectorJoinKey(keyCols, i, buf[:0])
		buf = key
		if err != nil {
			return nil, err
		}
		if err := joinKeyTypeConflict(mask, jr.rmask, len(j.LeftKeys)); err != nil {
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
	nb := &vector.Batch{N: total, Cols: make([]*vector.Col, len(b.Cols)), Src: b.Src}
	for slot, c := range b.Cols {
		if c == nil || slot == j.RightSlot {
			continue
		}
		if c.Const {
			nb.Cols[slot] = c
			continue
		}
		oc := vector.NewCol(total)
		for i := 0; i < b.N; i++ {
			it := c.Item(i)
			for range matches[i] {
				oc.AppendItem(it)
			}
		}
		nb.Cols[slot] = oc
	}
	rcol := vector.NewCol(total)
	for i := 0; i < b.N; i++ {
		for _, it := range matches[i] {
			rcol.AppendItem(it)
		}
	}
	nb.Cols[j.RightSlot] = rcol
	return nb, nil
}

// sortMorsel encodes the batch's order-by keys and produces this morsel's
// stably sorted run (truncated to k for a fused top-k), carrying each
// surviving row's bound column values for the deferred projection.
func (v *vectorIter) sortMorsel(vs *vstate, b *vector.Batch) (*vmorselResult, error) {
	s, topK := v.k.Sort, v.k.Plan.TopK
	res := &vmorselResult{
		run:       vector.NewSortRows(s.Specs),
		sawString: make([]bool, len(s.Keys)),
		sawNumber: make([]bool, len(s.Keys)),
	}
	keyCols, err := vs.evalAll(s.Keys, b)
	if err != nil {
		return nil, err
	}
	var rowErr error
	for i := 0; i < b.N; i++ {
		keys := make([]item.SortKey, len(keyCols))
		for ki, kc := range keyCols {
			sk, err := kc.OrderKey(i, s.EmptyGreatest[ki])
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
			vs := make([]item.Item, len(b.Cols))
			for slot, c := range b.Cols {
				if c != nil {
					vs[slot] = c.Item(row)
				}
			}
			if b.Src != nil && b.Cols[0] == nil {
				// The deferred projection reads the scan variable after the
				// merge, away from this segment's lanes: assemble the row now —
				// under a top-k, only once it ranks inside the bound.
				it, err := b.ScanRow(v.k.RowSlot, row)
				if err != nil && rowErr == nil {
					rowErr = err
				}
				vs[0] = it
			}
			return vs
		}
		if topK > 0 {
			res.run.AppendTopK(keys, int(topK), vals)
			continue
		}
		res.run.Append(keys, vals())
	}
	if rowErr != nil {
		return nil, rowErr
	}
	if topK == 0 {
		res.run.Sort()
	}
	return res, nil
}

// evalAll evaluates each expression over b.
func (vs *vstate) evalAll(es []vector.Expr, b *vector.Batch) ([]*vector.Col, error) {
	cols := make([]*vector.Col, len(es))
	for i, e := range es {
		col, err := vs.eval(e, b)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return cols, nil
}

// stageClock times consecutive pipeline stages into the evaluation's
// profile: each done records one stage's rows out, one batch, and the wall
// time since the previous stage ended. With no profile attached it records
// nothing and never reads the clock.
type stageClock struct {
	prof *profile.Profile
	t0   time.Time
}

func newStageClock(prof *profile.Profile) stageClock {
	if prof == nil {
		return stageClock{}
	}
	return stageClock{prof: prof, t0: time.Now()}
}

func (c *stageClock) done(op int, rows int64) {
	if c.prof == nil {
		return
	}
	o := c.prof.Op(op)
	o.AddRows(rows)
	o.AddBatches(1)
	now := time.Now()
	o.AddWall(now.Sub(c.t0))
	c.t0 = now
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
	k := v.k
	clk := newStageClock(vs.prof)
	b, err := v.morselBatch(m, dec)
	if err != nil {
		return nil, err
	}
	if len(k.PosSlots) > 0 {
		// Every morsel but the last is exactly BatchSize rows, so the
		// 1-based scan position of row i is idx*BatchSize + i + 1.
		base := int64(m.idx) * int64(vector.BatchSize)
		pc := vector.NewCol(b.N)
		for i := 0; i < b.N; i++ {
			pc.AppendInt(base + int64(i) + 1)
		}
		for _, slot := range k.PosSlots {
			b.Cols[slot] = pc
		}
	}
	clk.done(v.opScan, int64(b.N))
	if k.Join != nil {
		if b, err = v.probeJoin(vs, jr, b); err != nil {
			return nil, err
		}
		clk.done(v.opJoin, int64(b.N))
	}
	for oi, op := range k.Ops {
		col, err := vs.eval(op.Expr, b)
		if err != nil {
			return nil, err
		}
		if op.Slot >= 0 {
			b.Cols[op.Slot] = col
		} else {
			keep := make([]bool, b.N)
			kept := 0
			for i := 0; i < b.N; i++ {
				if col.EBV(i) {
					keep[i] = true
					kept++
				}
			}
			if kept < b.N {
				b = b.Compact(keep, kept)
			}
		}
		clk.done(v.opIDs[oi], int64(b.N))
		if b.N == 0 {
			break
		}
	}
	if k.Sort != nil {
		res, err := v.sortMorsel(vs, b)
		if err == nil {
			clk.done(v.opSort, int64(b.N))
		}
		return res, err
	}
	res := &vmorselResult{}
	if g := k.Group; g != nil {
		res.groups = vector.NewGroups(len(g.KeyExprs), g.Kinds)
		if b.N > 0 {
			if err := v.updateGroups(vs, b, res.groups); err != nil {
				return nil, err
			}
		}
		// Rows out of a group stage only exist after the global merge;
		// per-morsel it records batches and fold time (emitGroups adds the
		// group cardinality when the merged table projects).
		clk.done(v.opGroup, 0)
		return res, nil
	}
	if b.N == 0 {
		return res, nil
	}
	col, err := vs.eval(k.Project, b)
	if err != nil {
		return nil, err
	}
	res.items = make([]item.Item, 0, b.N)
	for i := 0; i < b.N; i++ {
		if it := col.Item(i); it != nil {
			res.items = append(res.items, it)
		}
	}
	clk.done(v.opRoot, int64(len(res.items)))
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
	if s := v.k.Sort; s != nil {
		st.sawString = make([]bool, len(s.Keys))
		st.sawNumber = make([]bool, len(s.Keys))
	}
	return st
}

// mergeResult folds one morsel's result — in morsel index order — into the
// evaluation: non-group rows yield immediately, partial aggregation tables
// merge into the running table, sorted runs collect (or two-way merge into
// the running top-k, bounding memory to k). stop=true asks the caller to
// cancel the remaining scan: an early-exit existence test is decided.
func (v *vectorIter) mergeResult(st *vmergeState, res *vmorselResult, yield func(item.Item) error) (stop bool, err error) {
	if v.k.Sort != nil {
		for ki := range st.sawString {
			st.sawString[ki] = st.sawString[ki] || res.sawString[ki]
			st.sawNumber[ki] = st.sawNumber[ki] || res.sawNumber[ki]
		}
		if topK := v.k.Plan.TopK; topK > 0 {
			if st.topk == nil {
				st.topk = res.run
			} else {
				st.topk = vector.MergeTopK(st.topk, res.run, int(topK))
			}
			return false, nil
		}
		st.runs = append(st.runs, res.run)
		return false, nil
	}
	if g := v.k.Group; g != nil {
		if st.groups == nil {
			st.groups = res.groups
		} else if err := st.groups.Merge(res.groups); err != nil {
			return false, Errorf("%v", err)
		}
		if g.EarlyExit && st.groups.GrandCount() > 0 {
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
	if v.k.Sort != nil {
		return v.finishSort(vs, st, ctx, yield)
	}
	return v.finishGroups(vs, st.groups, ctx, yield)
}

// finishSort runs the global string/number mix check the tuple path applies
// after seeing the whole stream, then k-way merges the per-morsel runs and
// projects the return expression over the merged order in batches.
func (v *vectorIter) finishSort(vs *vstate, st *vmergeState, ctx context.Context, yield func(item.Item) error) error {
	for ki := range st.sawString {
		if st.sawString[ki] && st.sawNumber[ki] {
			return Errorf("order by: key %d mixes strings and numbers across the tuple stream", ki+1)
		}
	}
	runs := st.runs
	if v.k.Plan.TopK > 0 {
		if st.topk == nil {
			return nil
		}
		runs = []*vector.SortRows{st.topk}
	}
	clk := newStageClock(vs.prof)
	var rootRows int64
	newBatch := func() *vector.Batch {
		b := &vector.Batch{Cols: make([]*vector.Col, v.k.Slots)}
		for i := range b.Cols {
			b.Cols[i] = vector.NewCol(vector.BatchSize)
		}
		return b
	}
	b := newBatch()
	flush := func() error {
		if b.N == 0 {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pc, err := vs.eval(v.k.Sort.Project, b)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if it := pc.Item(i); it != nil {
				rootRows++
				if err := yield(it); err != nil {
					return err
				}
			}
		}
		b = newBatch()
		return nil
	}
	err := vector.MergeRuns(runs, func(vals []item.Item) error {
		for slot, c := range b.Cols {
			c.AppendItem(vals[slot])
		}
		b.N++
		if b.N >= vector.BatchSize {
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
	clk.done(v.opRoot, rootRows)
	return nil
}

// finishGroups emits the merged aggregation table (if the pipeline has
// one), materializing the implicit group of a grand aggregate first.
func (v *vectorIter) finishGroups(vs *vstate, merged *vector.Groups, ctx context.Context, yield func(item.Item) error) error {
	g := v.k.Group
	if g == nil {
		return nil
	}
	if merged == nil {
		merged = vector.NewGroups(len(g.KeyExprs), g.Kinds)
	}
	if g.Clause == nil {
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
func (v *vectorIter) updateGroups(vs *vstate, b *vector.Batch, groups *vector.Groups) error {
	g := v.k.Group
	keyCols := make([]*vector.Col, len(g.KeyExprs))
	for i, ke := range g.KeyExprs {
		col, err := vs.eval(ke, b)
		if err != nil {
			return err
		}
		keyCols[i] = col
		b.Cols[g.KeySlots[i]] = col
	}
	aggCols, err := vs.evalAll(g.AggArgs, b)
	if err != nil {
		return err
	}
	if err := groups.Update(keyCols, aggCols, b.N); err != nil {
		return Errorf("%v", err)
	}
	return nil
}

// emitGroups builds group batches (keys plus finalized aggregates) in
// first-seen order and projects the return expression over them.
func (v *vectorIter) emitGroups(vs *vstate, groups *vector.Groups, ctx context.Context, yield func(item.Item) error) error {
	g := v.k.Group
	nk := len(g.KeyExprs)
	// The merged table's cardinality is the group stage's row count; the
	// projected output rows belong to the whole-FLWOR operator.
	vs.prof.Op(v.opGroup).AddRows(int64(groups.Len()))
	clk := newStageClock(vs.prof)
	var rootRows int64
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
		gb := &vector.Batch{N: end - start, Cols: make([]*vector.Col, nk+len(g.Kinds))}
		for ki := 0; ki < nk; ki++ {
			col := vector.NewCol(gb.N)
			for gi := start; gi < end; gi++ {
				col.AppendItem(groups.Key(gi, ki))
			}
			gb.Cols[ki] = col
		}
		for j := range g.Kinds {
			col := vector.NewCol(gb.N)
			for gi := start; gi < end; gi++ {
				res, err := groups.Agg(gi, j)
				if err != nil {
					return Errorf("%v", err)
				}
				col.AppendItem(res)
			}
			gb.Cols[nk+j] = col
		}
		pc, err := vs.eval(g.Project, gb)
		if err != nil {
			return err
		}
		for i := 0; i < gb.N; i++ {
			if it := pc.Item(i); it != nil {
				rootRows++
				if err := yield(it); err != nil {
					return err
				}
			}
		}
	}
	clk.done(v.opRoot, rootRows)
	return nil
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

// compileVector builds the columnar plan of a FLWOR the compiler annotated
// ModeVector from the one vector compile, compiler.Info.CompileVector, and
// wires the scan inputs, profiling operators and executors around its
// kernels. fallback is a tuple-path iterator producing identical results
// for the same expression; agg names the grand aggregate the pipeline folds
// into ("" for none) and pn the plan node the iterator reports as.
func (c *comp) compileVector(f *ast.FLWOR, fallback Iterator, agg string, pn planNode) (Iterator, error) {
	k, err := c.info.CompileVector(f, agg)
	if err != nil {
		return nil, err
	}
	it := &vectorIter{planNode: pn, k: k, fallback: fallback,
		sc: c.env.Spark, workers: c.vectorWorkers(),
		opScan: -1, opJoin: -1, opGroup: -1, opSort: -1, opRoot: -1}
	// Profiling ops are dedup lookups: the tuple pipeline registered the
	// same clauses (same AST keys) when it compiled first.
	if j := k.Join; j != nil {
		if it.in, err = c.compile(j.Plan.Left.In); err != nil {
			return nil, err
		}
		if it.rightIn, err = c.compile(j.Plan.Right.In); err != nil {
			return nil, err
		}
		it.opJoin = c.op(j.Plan, "join", -1)
	} else {
		if it.in, err = c.compile(k.Head.In); err != nil {
			return nil, err
		}
		it.opScan = c.op(k.Head, "for $"+k.Head.Var, c.opOf(it.in, k.Head.In))
		// Zone-map pushdown: the plan's prune prefix becomes the segment
		// predicates a segment-backed scan tests before touching rows. The
		// where clauses themselves still run — pruning only skips segments
		// no row of which could pass (or error in) the prefix, so running
		// the full filter over the surviving segments keeps results
		// identical.
		for _, p := range k.Plan.Prune {
			it.prune = append(it.prune, segment.Predicate{Field: p.Field, Op: p.Op, Lit: p.Lit})
		}
	}
	it.opIDs = make([]int, len(k.Ops))
	for i, op := range k.Ops {
		label := "where"
		if lc, ok := op.Key.(*ast.LetClause); ok {
			label = "let $" + lc.Var
		}
		it.opIDs[i] = c.op(op.Key, label, -1)
	}
	if g := k.Group; g != nil && g.Clause != nil {
		it.opGroup = c.op(g.Clause, "group by", -1)
	}
	if k.Sort != nil {
		it.opSort = c.op(k.Plan.OrderBy, "order by", -1)
	}
	if agg == "" {
		// The whole-FLWOR operator records the pipeline's emitted rows;
		// grand aggregates leave it to their enclosing profiled wrapper.
		it.opRoot = c.op(f, "flwor", -1)
	}
	return it, nil
}
