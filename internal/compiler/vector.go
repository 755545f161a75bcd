package compiler

import (
	"strings"

	"rumble/internal/ast"
	"rumble/internal/functions"
	"rumble/internal/item"
	"rumble/internal/vector"
)

// VectorPlan marks a FLWOR the annotation phase compiled for the columnar
// local backend (ModeVector): the summary of its VectorKernels that Explain
// shows and Verify re-derives from the AST.
type VectorPlan struct {
	// Grouped reports whether the pipeline ends in a group-by, i.e. the
	// vector run aggregates instead of projecting row-by-row.
	Grouped bool
	// OrderBy is the order-by clause the backend runs as a columnar sort
	// (each morsel worker sorts a run, the coordinator k-way-merges them);
	// nil when the pipeline has none.
	OrderBy *ast.OrderByClause
	// TopK, when positive, bounds the sort: the clause tail was
	// "count $c where $c le/lt K" (or the flipped ge/gt form), so the
	// backend keeps a bounded top-k per morsel and never materializes the
	// tail. The count variable itself is fused away.
	TopK int64
	// Join reports that the FLWOR's detected equi-join (Info.Joins) runs as
	// a vector hash join: the right side builds a pre-sized hash table, the
	// left side probes it morsel by morsel.
	Join bool
	// Positional reports that the pipeline binds scan positions — a
	// positional "at $p" variable or a pre-filter count clause — derived
	// from morsel scan indices.
	Positional bool
	// Prune is the zone-map pushdown: the longest prefix of and-conjuncts
	// from the leading where run right after the head for clause that are
	// value comparisons between a literal-key field lookup on the scan
	// variable and an Int/Double/Dec/Str literal. A segment-backed scan may
	// skip a whole segment when some conjunct is provably unsatisfiable
	// there while every earlier conjunct is provably error-free — the
	// prefix shape plus the backend's per-row short-circuit of "and" make
	// that exactly result- and error-preserving. Never set on join or
	// positional pipelines (skipping would renumber scan positions).
	Prune []PrunePred
	// Columns is the column-projection pushdown: the sorted set of
	// top-level fields the pipeline reads off the scan variable through
	// literal-key lookups ($x.field...), by the rule of scanProjection.
	// When AllColumns is false, every consumption of the scan variable goes
	// through these fields (or a count aggregate, which needs only row
	// presence), so a segment-backed scan decodes just these columns' lanes
	// and skips every other lane's bytes, and a raw-line scan builds just
	// these members. Meaningful only when AllColumns is false; nil on join
	// plans.
	Columns []string
	// AllColumns reports that the projection rule gave up: some expression
	// consumes the scan variable whole — a bare $x in a let/return, a join
	// side, a group key binding $x, an aggregate folding $x itself. It is a
	// statement about the plan's text, not an order to build rows: the
	// backend still fetches only the lanes its compiled expressions read,
	// and assembles a whole row only where one is actually consumed.
	AllColumns bool
}

// PrunePred is one pushed-down conjunct of VectorPlan.Prune.
type PrunePred struct {
	Field string    // top-level field looked up on the scan variable
	Op    string    // eq, ne, lt, le, gt, ge — normalized to field-on-left
	Lit   item.Item // Int, Double, Dec or Str literal
}

// vectorScalarFunctions are the scalar builtins the vector backend
// evaluates per row inside filters and projections. All are single-valued
// over single-valued (or empty) arguments.
var vectorScalarFunctions = map[string]bool{
	"contains": true, "starts-with": true, "ends-with": true,
	"upper-case": true, "lower-case": true, "string": true,
	"string-length": true,
}

// VectorKernels is a FLWOR compiled for the columnar backend: the kernel
// tree of every clause, the pipeline tail, and the batch slot layout they
// read and write. CompileVector builds it; the runtime only wires inputs,
// profiling operators and executors around it.
type VectorKernels struct {
	// Plan is the summary Explain renders and Verify re-derives.
	Plan *VectorPlan
	// Head is the scan's for clause; nil when Join heads the pipeline.
	Head *ast.ForClause
	Join *VectorJoin
	// Ops are the steps after the head, in clause order.
	Ops []VectorOp
	// Exactly one tail: Group (a group-by or a grand aggregate), Sort, or
	// the row projection Project.
	Group   *VectorGroup
	Sort    *VectorSort
	Project vector.Expr

	// Slots is the width of a pipeline batch. Slot 0 is the scan variable;
	// Fields are the scan variable's top-level fields read by literal key,
	// each carried in the slot at the same index of FieldSlots. RowSlot is
	// the hidden slot holding each row's index within its segment, from
	// which a vector.RowsExpr assembles the scan variable whole; -1 when no
	// expression reads it whole, so slot 0 stays nil and no row item is
	// ever built. PosSlots bind the 1-based scan position (at / count).
	Slots      int
	Fields     []string
	FieldSlots []int
	RowSlot    int
	PosSlots   []int
	// Externals are the free variables, in the order vector.ExtExpr
	// indexes them: each resolves once per evaluation to a constant column.
	Externals []string
}

// VectorOp is one pipeline step: a let binding Slot, or a filter (Slot < 0)
// compacting the batch by its condition. Key is the clause — or the join
// residual conjunct — the tuple pipeline registers its operator under.
type VectorOp struct {
	Key  any
	Slot int
	Expr vector.Expr
}

// VectorJoin is the hash equi-join head: the left side is the scan (slot
// 0), the right side builds a hash table on RightKeys, evaluated over build
// batches whose slot 0 is the right variable, and each match binds it at
// RightSlot of the probe batch.
type VectorJoin struct {
	Plan      *JoinPlan
	RightSlot int
	LeftKeys  []vector.Expr
	RightKeys []vector.Expr
}

// VectorGroup is the aggregating tail. Key expressions evaluate on the
// pipeline batch, left to right, each rebinding KeySlots[i] for the specs
// after it; AggArgs evaluate on it after the keys, aligned with Kinds.
// Project evaluates over group batches: the keys in slots 0..len(KeyExprs)-1,
// then one finalized aggregate per kind.
type VectorGroup struct {
	// Clause is nil for a grand aggregate: one implicit group over the
	// whole scan, present even when no row is.
	Clause   *ast.GroupByClause
	KeyExprs []vector.Expr
	KeySlots []int
	Kinds    []vector.AggKind
	AggArgs  []vector.Expr
	Project  vector.Expr
	// EarlyExit marks an existence test (exists/empty/count-eq-zero): the
	// single grand count only needs to reach one, so the scan can stop as
	// soon as a merged prefix shows a present row.
	EarlyExit bool
}

// VectorSort is the order-by tail: Keys evaluate per pipeline batch, and
// Project evaluates over the merged order.
type VectorSort struct {
	Keys          []vector.Expr
	Specs         []vector.SortSpec
	EmptyGreatest []bool
	Project       vector.Expr
}

// CompileVector is the one vector compile: the only walk over a pipeline's
// clauses and scalar grammar. The annotation phase marks a FLWOR Vector
// exactly when it succeeds, and the runtime builds its batch operators from
// what it returns. The pipeline it admits is
//
//	[cluster-bound lets] for $x [at $p] in <src> (let|where|count)*
//	    [order by ... [count $c where $c le K]] | [group by] return <e>
//
// or a detected equi-join (Info.Joins) followed by the same tail, where
// every let value, where condition, sort key, join key and the return
// expression is a single-valued scalar: literals, variable references,
// literal-key object lookups, arithmetic, value comparisons, and/or logic,
// object and array constructors, and vectorScalarFunctions. Pipeline
// bindings become batch slots; free variables (globals, outer FLWOR
// bindings) become per-evaluation constants — the runtime re-routes an
// evaluation through the tuple pipeline when one binds a multi-item
// sequence. After a group-by, non-key variables are consumed only through
// agg($v), agg($v.path...) or the #count-of($v#count) call the count
// rewrite produced.
//
// Positional variables and count clauses bind scan positions, so a count is
// admitted only while no preceding filter (or join) has changed the row
// count. An order-by whose tail is "count $c where $c le K" (the count
// variable unused elsewhere) fuses into a bounded top-k.
//
// agg names the grand aggregate the pipeline folds into instead of emitting
// rows: "" for none, count/sum/avg/min/max, or exists/empty for the
// early-exit existence tests. Any construct outside the grammar returns an
// error naming the first one met.
//
// A successful compile is kept: the runtime's call for the tail the
// annotation phase compiled returns the same kernels.
func (i *Info) CompileVector(f *ast.FLWOR, agg string) (*VectorKernels, error) {
	key := vectorTail{f, agg}
	if k := i.kernels[key]; k != nil {
		return k, nil
	}
	k, err := i.compileVector(f, agg)
	if err != nil {
		return nil, err
	}
	if i.kernels == nil {
		i.kernels = map[vectorTail]*VectorKernels{}
	}
	i.kernels[key] = k
	return k, nil
}

// vectorTail keys the compiles Info keeps: a FLWOR and the grand aggregate
// it folds into ("" for none).
type vectorTail struct {
	f   *ast.FLWOR
	agg string
}

func (i *Info) compileVector(f *ast.FLWOR, agg string) (*VectorKernels, error) {
	clauses := i.pipeline(f)
	if len(clauses) == 0 {
		return nil, errf(f.Pos(), "vector: empty clause list")
	}
	vp := &VectorPlan{}
	k := &VectorKernels{Plan: vp, RowSlot: -1}
	s := &vscope{info: i, k: k, slots: map[string]int{}, ext: map[string]int{}}
	var rest []ast.Clause
	filtered := false
	if jp := i.Joins[f]; jp != nil {
		// detectJoin consumed f.Clauses[0:3] (for/for/where); it only fires
		// on a leading for clause, so no cluster-bound lets were peeled.
		vp.Join = true
		rest = clauses[3:]
		deriveScanColumns(vp, nil, rest, f.Return)
		s.bindScan(jp.Left.Var, nil) // slot 0: the probe (scan) column
		j := &VectorJoin{Plan: jp, RightSlot: s.bind(jp.Right.Var)}
		build := s.child()
		build.bind(jp.Right.Var) // slot 0 of build batches
		var err error
		if j.LeftKeys, err = s.exprs(jp.LeftKeys); err != nil {
			return nil, err
		}
		if j.RightKeys, err = build.exprs(jp.RightKeys); err != nil {
			return nil, err
		}
		for _, cond := range jp.Residual {
			e, err := s.expr(cond)
			if err != nil {
				return nil, err
			}
			k.Ops = append(k.Ops, VectorOp{Key: cond, Slot: -1, Expr: e})
		}
		k.Join = j
		filtered = true // join output positions are not scan positions
	} else {
		head, ok := clauses[0].(*ast.ForClause)
		if !ok {
			return nil, errf(clauses[0].Pos(), "vector: pipeline must start with a for clause")
		}
		if head.AllowEmpty {
			return nil, errf(head.Pos(), "vector: for clause allows empty")
		}
		k.Head = head
		rest = clauses[1:]
		deriveScanColumns(vp, head, rest, f.Return)
		s.bindScan(head.Var, vp.Columns) // slot 0: the scan column
		if head.PosVar != "" {
			vp.Positional = true
			k.PosSlots = append(k.PosSlots, s.bind(head.PosVar))
		}
	}

	var group *ast.GroupByClause
	for ci := 0; ci < len(rest); ci++ {
		switch n := rest[ci].(type) {
		case *ast.LetClause:
			e, err := s.expr(n.Value)
			if err != nil {
				return nil, err
			}
			k.Ops = append(k.Ops, VectorOp{Key: n, Slot: s.bind(n.Var), Expr: e})
		case *ast.WhereClause:
			e, err := s.expr(n.Cond)
			if err != nil {
				return nil, err
			}
			k.Ops = append(k.Ops, VectorOp{Key: n, Slot: -1, Expr: e})
			filtered = true
		case *ast.CountClause:
			if filtered {
				return nil, errf(n.Pos(), "vector: count after a filter no longer counts scan positions")
			}
			vp.Positional = true
			k.PosSlots = append(k.PosSlots, s.bind(n.Var))
		case *ast.GroupByClause:
			if ci != len(rest)-1 {
				return nil, errf(n.Pos(), "vector: group by must end the pipeline")
			}
			group = n
		case *ast.OrderByClause:
			// The sort ends the pipeline, except for the fused top-k tail:
			// "count $c where $c le K" with $c unused in the return.
			switch tail := rest[ci+1:]; len(tail) {
			case 0:
			case 2:
				cc, okC := tail[0].(*ast.CountClause)
				wc, okW := tail[1].(*ast.WhereClause)
				if !okC || !okW {
					return nil, errf(n.Pos(), "vector: order by must end the pipeline or fuse a top-k tail")
				}
				bound, ok := topKBound(wc.Cond, cc.Var)
				if !ok || bound < 1 || exprUsesVar(f.Return, cc.Var) {
					return nil, errf(wc.Pos(), "vector: top-k tail does not bound an unused count variable")
				}
				vp.TopK = bound
			default:
				return nil, errf(n.Pos(), "vector: order by must end the pipeline or fuse a top-k tail")
			}
			vp.OrderBy = n
			ci = len(rest) // tail consumed
		default:
			return nil, errf(rest[ci].Pos(), "vector: unsupported clause %T", rest[ci])
		}
	}
	if k.Head != nil && !vp.Positional {
		vp.Prune = prunePredicates(k.Head.Var, rest)
	}

	var err error
	switch {
	case agg != "":
		err = s.grandAggregate(f, agg, group)
	case vp.OrderBy != nil:
		err = s.sortTail(f, vp.OrderBy)
	case group != nil:
		vp.Grouped = true
		err = s.groupTail(f, group)
	default:
		k.Project, err = s.expr(f.Return)
	}
	if err != nil {
		return nil, err
	}
	k.Slots = s.nslots
	return k, nil
}

// grandAggregate compiles the tail folding the return projection into the
// single implicit group of the grand aggregate agg.
func (s *vscope) grandAggregate(f *ast.FLWOR, agg string, group *ast.GroupByClause) error {
	if group != nil || s.k.Plan.OrderBy != nil {
		return errf(f.Pos(), "vector: grand aggregate over a grouped or sorted pipeline")
	}
	var proj vector.Expr
	if s.isScanVar(f.Return) && (agg == "count" || agg == "exists" || agg == "empty") {
		// Counting scan rows needs their presence, never their contents.
		proj = ones()
	} else {
		var err error
		if proj, err = s.expr(f.Return); err != nil {
			return err
		}
	}
	g := &VectorGroup{AggArgs: []vector.Expr{proj}}
	switch agg {
	case "exists", "empty":
		// Fold the projection into a grand count and finalize it to a
		// boolean; the scan stops once it is positive.
		g.EarlyExit = true
		g.Kinds = []vector.AggKind{vector.AggCount}
		g.Project = &vector.ExistsExpr{Empty: agg == "empty"}
	default:
		kind, ok := functions.AggregateKind(agg)
		if !ok {
			return errf(f.Pos(), "vector: unsupported grand aggregate %s", agg)
		}
		g.Kinds = []vector.AggKind{kind}
		g.Project = &vector.SlotExpr{Slot: 0}
	}
	s.k.Group = g
	return nil
}

// sortTail compiles the order-by keys and the return projection the merged
// order feeds.
func (s *vscope) sortTail(f *ast.FLWOR, ob *ast.OrderByClause) error {
	st := &VectorSort{}
	for _, spec := range ob.Specs {
		if spec.Expr == nil {
			return errf(ob.Pos(), "vector: order by spec without a key")
		}
		ke, err := s.expr(spec.Expr)
		if err != nil {
			return err
		}
		st.Keys = append(st.Keys, ke)
		st.Specs = append(st.Specs, vector.SortSpec{Descending: spec.Descending})
		st.EmptyGreatest = append(st.EmptyGreatest, spec.EmptyGreatest)
	}
	var err error
	if st.Project, err = s.expr(f.Return); err != nil {
		return err
	}
	s.k.Sort = st
	return nil
}

// groupTail compiles the group keys on the pipeline batch — each binding
// its variable for the specs after it, as the tuple path extends tuples
// progressively — and the return expression over group batches.
func (s *vscope) groupTail(f *ast.FLWOR, group *ast.GroupByClause) error {
	g := &VectorGroup{Clause: group}
	gs := s.child()
	gs.main, gs.group = s, g
	for i, spec := range group.Specs {
		var ke vector.Expr
		var err error
		if spec.Expr != nil {
			ke, err = s.expr(spec.Expr)
		} else if _, bound := s.slots[spec.Var]; bound {
			ke, err = s.varRef(&ast.VarRef{Name: spec.Var})
		} else {
			err = errf(group.Pos(), "vector: group key $%s is not a pipeline column", spec.Var)
		}
		if err != nil {
			return err
		}
		g.KeyExprs = append(g.KeyExprs, ke)
		g.KeySlots = append(g.KeySlots, s.bind(spec.Var))
		gs.slots[spec.Var] = i
	}
	var err error
	if g.Project, err = gs.expr(f.Return); err != nil {
		return err
	}
	s.k.Group = g
	return nil
}

// deriveScanColumns fills VectorPlan.Columns/AllColumns for a non-join
// pipeline from the projection rule every scan shares (scanProjection).
// Join pipelines are AllColumns unconditionally: the rule follows one scan
// variable, and a join has two.
func deriveScanColumns(vp *VectorPlan, head *ast.ForClause, rest []ast.Clause, ret ast.Expr) {
	if head == nil {
		vp.AllColumns = true
		return
	}
	cols, ok := scanProjection(head.Var, rest, ret)
	if !ok {
		vp.AllColumns = true
		return
	}
	vp.Columns = cols
}

// prunePredicates extracts VectorPlan.Prune from the clauses after the
// head for clause: conjuncts are collected from the leading consecutive
// where clauses (a let can error, so pruning never reaches past one), in
// evaluation order through the and-spines, stopping at the first conjunct
// that is not a prunable comparison. Keeping only that prefix preserves
// the left-to-right safety contract segment.Skip relies on.
func prunePredicates(headVar string, rest []ast.Clause) []PrunePred {
	var preds []PrunePred
	for _, cl := range rest {
		wc, ok := cl.(*ast.WhereClause)
		if !ok {
			break
		}
		for _, conj := range andConjuncts(wc.Cond, nil) {
			p, ok := pruneConjunct(headVar, conj)
			if !ok {
				return preds
			}
			preds = append(preds, p)
		}
	}
	return preds
}

// andConjuncts flattens an and-spine into evaluation order.
func andConjuncts(e ast.Expr, out []ast.Expr) []ast.Expr {
	if l, ok := e.(*ast.Logic); ok && l.IsAnd {
		return andConjuncts(l.R, andConjuncts(l.L, out))
	}
	return append(out, e)
}

// pruneConjunct recognizes one prunable conjunct: a value comparison of a
// literal-key field lookup on the scan variable against an atomic literal
// (either operand order; a flipped comparison normalizes its operator).
func pruneConjunct(headVar string, e ast.Expr) (PrunePred, bool) {
	cmp, ok := e.(*ast.Comparison)
	if !ok || cmp.General {
		return PrunePred{}, false
	}
	switch cmp.Op {
	case "eq", "ne", "lt", "le", "gt", "ge":
	default:
		return PrunePred{}, false
	}
	if f, ok := pruneLookupField(headVar, cmp.L); ok {
		if lit, ok := pruneLiteral(cmp.R); ok {
			return PrunePred{Field: f, Op: string(cmp.Op), Lit: lit}, true
		}
		return PrunePred{}, false
	}
	if f, ok := pruneLookupField(headVar, cmp.R); ok {
		if lit, ok := pruneLiteral(cmp.L); ok {
			return PrunePred{Field: f, Op: flipCompareOp(string(cmp.Op)), Lit: lit}, true
		}
	}
	return PrunePred{}, false
}

// pruneLookupField matches $head.field with a literal string key.
func pruneLookupField(headVar string, e ast.Expr) (string, bool) {
	ol, ok := e.(*ast.ObjectLookup)
	if !ok {
		return "", false
	}
	vr, ok := ol.Input.(*ast.VarRef)
	if !ok || vr.Name != headVar {
		return "", false
	}
	return stringLiteral(ol.Key)
}

// pruneLiteral admits the literal kinds the zone-map rules understand.
func pruneLiteral(e ast.Expr) (item.Item, bool) {
	lit, ok := e.(*ast.Literal)
	if !ok {
		return nil, false
	}
	switch lit.Value.Kind() {
	case item.KindInteger, item.KindDecimal, item.KindDouble, item.KindString:
		return lit.Value, true
	}
	return nil, false
}

// flipCompareOp mirrors a value-comparison operator across its operands.
func flipCompareOp(op string) string {
	switch op {
	case "lt":
		return "gt"
	case "le":
		return "ge"
	case "gt":
		return "lt"
	case "ge":
		return "le"
	}
	return op // eq and ne are symmetric
}

// topKBound recognizes a where condition that bounds the count variable of
// an order-by tail to a static rank: "$c le K" / "$c lt K" or the flipped
// "K ge $c" / "K gt $c" (value comparisons with an integer literal K),
// returning the inclusive bound.
func topKBound(cond ast.Expr, countVar string) (int64, bool) {
	cmp, ok := cond.(*ast.Comparison)
	if !ok || cmp.General {
		return 0, false
	}
	if vr, ok := cmp.L.(*ast.VarRef); ok && vr.Name == countVar {
		if k, ok := literalInt(cmp.R); ok {
			switch cmp.Op {
			case "le":
				return k, true
			case "lt":
				return k - 1, true
			}
		}
		return 0, false
	}
	if vr, ok := cmp.R.(*ast.VarRef); ok && vr.Name == countVar {
		if k, ok := literalInt(cmp.L); ok {
			switch cmp.Op {
			case "ge":
				return k, true
			case "gt":
				return k - 1, true
			}
		}
	}
	return 0, false
}

// literalInt unwraps an integer literal.
func literalInt(e ast.Expr) (int64, bool) {
	lit, ok := e.(*ast.Literal)
	if !ok {
		return 0, false
	}
	v, ok := lit.Value.(item.Int)
	return int64(v), ok
}

// countZeroCall recognizes "count(F) eq 0" (either operand order, value
// comparison) over a vector-eligible non-grouped, non-sorted pipeline: the
// emptiness test folds as an early-exit grand aggregate, like empty(F).
// Returns the inner count call, or nil.
func (c *checker) countZeroCall(n *ast.Comparison) *ast.FunctionCall {
	if !c.vectorize || n.General || n.Op != "eq" {
		return nil
	}
	call, lit := n.L, n.R
	if _, ok := call.(*ast.Literal); ok {
		call, lit = lit, call
	}
	if v, ok := literalInt(lit); !ok || v != 0 {
		return nil
	}
	fc, ok := call.(*ast.FunctionCall)
	if !ok || fc.Name != "count" || len(fc.Args) != 1 {
		return nil
	}
	if _, isUDF := c.functions[fc.Name]; isUDF {
		return nil
	}
	if c.info.Pushdown[fc] {
		return nil // the cluster count action already short-circuits costs
	}
	f, ok := fc.Args[0].(*ast.FLWOR)
	if !ok {
		return nil
	}
	vp := c.info.VectorPlans[f]
	if vp == nil || vp.Grouped || vp.OrderBy != nil {
		return nil
	}
	return fc
}

// vscope is one slot environment of a vector compile: the pipeline batch,
// a join's build batch (whose slot 0 is the right variable), or a grouped
// return's group batch (keys, then aggregate results). All scopes of one
// compile share its free-variable table, so a free variable resolves once
// per evaluation wherever it is referenced.
type vscope struct {
	info   *Info
	k      *VectorKernels
	slots  map[string]int
	nslots int
	ext    map[string]int // free variable → index into k.Externals

	// scanVar is the pipeline's scan variable, empty outside the pipeline
	// scope and once a later clause rebinds the name: $scanVar.f reads field
	// f's slot, and a bare $scanVar assembles rows through k.RowSlot.
	scanVar string
	fields  map[string]int

	// A group scope reads pipeline variables only through the aggregates
	// of group, whose arguments compile against main.
	main  *vscope
	group *VectorGroup
}

// child returns a fresh slot environment sharing s's free variables.
func (s *vscope) child() *vscope {
	return &vscope{info: s.info, k: s.k, slots: map[string]int{}, ext: s.ext}
}

func (s *vscope) bind(name string) int {
	if name == s.scanVar {
		s.scanVar = "" // shadowed: the name no longer reads the scan
	}
	slot := s.nslots
	s.nslots++
	s.slots[name] = slot
	return slot
}

// bindScan binds the scan variable at slot 0 and pre-binds the projected
// columns in their sorted order.
func (s *vscope) bindScan(name string, cols []string) {
	s.bind(name)
	s.scanVar = name
	s.fields = map[string]int{}
	for _, f := range cols {
		s.field(f)
	}
}

// field allocates (or reuses) the slot carrying one top-level field of the
// scan variable. Fields live outside the variable namespace: the scan
// fills them, never a let.
func (s *vscope) field(f string) int {
	if slot, ok := s.fields[f]; ok {
		return slot
	}
	slot := s.nslots
	s.nslots++
	s.fields[f] = slot
	s.k.Fields = append(s.k.Fields, f)
	s.k.FieldSlots = append(s.k.FieldSlots, slot)
	return slot
}

// isScanVar reports whether e is a bare reference to the scan variable.
func (s *vscope) isScanVar(e ast.Expr) bool {
	vr, ok := e.(*ast.VarRef)
	return ok && s.scanVar != "" && vr.Name == s.scanVar
}

// varRef compiles a variable reference: the scan variable whole, a slot,
// or a free-variable constant. In a group scope a bound non-key variable
// holds the per-group concatenation, readable only through aggregates.
func (s *vscope) varRef(n *ast.VarRef) (vector.Expr, error) {
	if s.isScanVar(n) {
		if s.k.RowSlot < 0 {
			s.k.RowSlot = s.nslots
			s.nslots++
		}
		return &vector.RowsExpr{RowSlot: s.k.RowSlot}, nil
	}
	if slot, ok := s.slots[n.Name]; ok {
		return &vector.SlotExpr{Slot: slot}, nil
	}
	if s.main != nil {
		if _, bound := s.main.slots[n.Name]; bound {
			return nil, errf(n.Pos(), "vector: non-key variable $%s outside an aggregate", n.Name)
		}
	}
	idx, ok := s.ext[n.Name]
	if !ok {
		idx = len(s.k.Externals)
		s.k.Externals = append(s.k.Externals, n.Name)
		s.ext[n.Name] = idx
	}
	return &vector.ExtExpr{Idx: idx}, nil
}

func (s *vscope) exprs(es []ast.Expr) ([]vector.Expr, error) {
	out := make([]vector.Expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = s.expr(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expr compiles one scalar expression of the vector grammar.
func (s *vscope) expr(e ast.Expr) (vector.Expr, error) {
	switch n := e.(type) {
	case *ast.Literal:
		return &vector.LitExpr{Col: vector.ConstCol(n.Value)}, nil
	case *ast.VarRef:
		return s.varRef(n)
	case *ast.ObjectLookup:
		key, ok := stringLiteral(n.Key)
		if !ok {
			return nil, errf(n.Pos(), "vector: dynamic object lookup key")
		}
		if s.isScanVar(n.Input) {
			return &vector.SlotExpr{Slot: s.field(key)}, nil
		}
		in, err := s.expr(n.Input)
		if err != nil {
			return nil, err
		}
		return &vector.LookupExpr{In: in, Key: key}, nil
	case *ast.Comparison:
		op, ok := vector.ParseCmpOp(string(n.Op))
		if !ok || n.General {
			return nil, errf(n.Pos(), "vector: unsupported comparison %s", n.Op)
		}
		l, r, err := s.two(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &vector.CmpExpr{Op: op, L: l, R: r}, nil
	case *ast.Arith:
		l, r, err := s.two(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &vector.ArithExpr{Op: n.Op, L: l, R: r}, nil
	case *ast.Logic:
		l, r, err := s.two(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &vector.LogicExpr{And: n.IsAnd, L: l, R: r}, nil
	case *ast.Unary:
		in, err := s.expr(n.Operand)
		if err != nil {
			return nil, err
		}
		return &vector.UnaryExpr{Minus: n.Minus, In: in}, nil
	case *ast.ObjectConstructor:
		oe := &vector.ObjectExpr{}
		for i := range n.Keys {
			key, ok := stringLiteral(n.Keys[i])
			if !ok {
				return nil, errf(n.Pos(), "vector: dynamic object constructor key")
			}
			v, err := s.expr(n.Values[i])
			if err != nil {
				return nil, err
			}
			oe.Keys = append(oe.Keys, key)
			oe.Vals = append(oe.Vals, v)
		}
		return oe, nil
	case *ast.ArrayConstructor:
		if n.Body == nil {
			return &vector.ArrayExpr{}, nil
		}
		body, err := s.expr(n.Body)
		if err != nil {
			return nil, err
		}
		return &vector.ArrayExpr{Body: body}, nil
	case *ast.FunctionCall:
		if s.group != nil {
			if ve, handled, err := s.aggregate(n); handled {
				return ve, err
			}
		}
		fn, ok := functions.Lookup(n.Name)
		if !ok || s.info.isUDF(n.Name) || !vectorScalarFunctions[n.Name] {
			return nil, errf(n.Pos(), "vector: unsupported function %s", n.Name)
		}
		args, err := s.exprs(n.Args)
		if err != nil {
			return nil, err
		}
		return &vector.CallExpr{Fn: fn, Args: args}, nil
	default:
		return nil, errf(e.Pos(), "vector: unsupported expression %T", e)
	}
}

func (s *vscope) two(l, r ast.Expr) (vector.Expr, vector.Expr, error) {
	le, err := s.expr(l)
	if err != nil {
		return nil, nil, err
	}
	re, err := s.expr(r)
	if err != nil {
		return nil, nil, err
	}
	return le, re, nil
}

// aggregate compiles, in a group scope, a call that folds a non-key
// pipeline variable into an accumulator slot: #count-of($v#count), or
// agg($v) / agg($v.path...) for a foldable aggregate. handled=false leaves
// the call to the scalar grammar.
func (s *vscope) aggregate(n *ast.FunctionCall) (ve vector.Expr, handled bool, err error) {
	m := s.main
	// nonKey reports whether name is a pipeline variable other than a key.
	nonKey := func(name string) bool {
		_, bound := m.slots[name]
		_, key := s.slots[name]
		return bound && !key
	}
	if base, ok := countOfVar(n); ok {
		if !nonKey(base) {
			return nil, true, errf(n.Pos(), "vector: #count-of over $%s, not a non-key pipeline variable", base)
		}
		if base == m.scanVar {
			// Counting the scan variable needs row presence only: fold an
			// always-present constant instead of assembling rows.
			return s.aggSlot(vector.AggCount, ones()), true, nil
		}
		return s.aggSlot(vector.AggCount, &vector.SlotExpr{Slot: m.slots[base]}), true, nil
	}
	kind, isAgg := functions.AggregateKind(n.Name)
	if !isAgg || s.info.isUDF(n.Name) || len(n.Args) != 1 {
		return nil, false, nil
	}
	if root, ok := aggArgRoot(n.Args[0]); !ok || !nonKey(root) {
		return nil, true, errf(n.Pos(), "vector: %s argument is not a path over a non-key pipeline variable", n.Name)
	}
	if kind == vector.AggCount && m.isScanVar(n.Args[0]) {
		return s.aggSlot(vector.AggCount, ones()), true, nil
	}
	arg, err := m.expr(n.Args[0])
	if err != nil {
		return nil, true, err
	}
	return s.aggSlot(kind, arg), true, nil
}

// aggSlot allocates one accumulator and returns the group-batch column
// reading its finalized value.
func (s *vscope) aggSlot(kind vector.AggKind, arg vector.Expr) vector.Expr {
	g := s.group
	g.Kinds = append(g.Kinds, kind)
	g.AggArgs = append(g.AggArgs, arg)
	return &vector.SlotExpr{Slot: len(g.KeyExprs) + len(g.Kinds) - 1}
}

// ones broadcasts an always-present constant: the count-aggregate argument
// standing in for "one per row" when the plan never materializes the scan
// variable itself.
func ones() vector.Expr {
	return &vector.LitExpr{Col: vector.ConstCol(item.Bool(true))}
}

// stringLiteral extracts a compile-time string key.
func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.Literal)
	if !ok {
		return "", false
	}
	s, ok := lit.Value.(item.Str)
	return string(s), ok
}

// countOfVar recognizes the #count-of($v#count) call the group-by count
// rewrite produces and returns the base variable name.
func countOfVar(n *ast.FunctionCall) (string, bool) {
	if n.Name != "#count-of" || len(n.Args) != 1 {
		return "", false
	}
	vr, ok := n.Args[0].(*ast.VarRef)
	if !ok || !strings.HasSuffix(vr.Name, CountMarkerSuffix) {
		return "", false
	}
	return strings.TrimSuffix(vr.Name, CountMarkerSuffix), true
}

// aggArgRoot accepts an aggregate argument of the form $v or a chain of
// literal-key object lookups rooted at $v, returning the root variable.
func aggArgRoot(e ast.Expr) (string, bool) {
	for {
		switch n := e.(type) {
		case *ast.VarRef:
			return n.Name, true
		case *ast.ObjectLookup:
			if _, ok := stringLiteral(n.Key); !ok {
				return "", false
			}
			e = n.Input
		default:
			return "", false
		}
	}
}
