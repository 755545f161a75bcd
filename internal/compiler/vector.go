package compiler

import (
	"strings"

	"rumble/internal/ast"
	"rumble/internal/functions"
	"rumble/internal/item"
)

// VectorPlan marks a FLWOR the annotation phase proved eligible for the
// columnar local backend (ModeVector). Eligibility is a pure shape check;
// the runtime compiles the same clauses into batch operators and falls back
// to the tuple pipeline if anything unexpected surfaces at run time, so the
// plan carries no state beyond what Explain wants to show.
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

// VectorScalarFunctions are the scalar builtins the vector backend
// evaluates per row inside filters and projections. All are single-valued
// over single-valued (or empty) arguments.
var VectorScalarFunctions = map[string]bool{
	"contains": true, "starts-with": true, "ends-with": true,
	"upper-case": true, "lower-case": true, "string": true,
	"string-length": true,
}

// detectVector decides whether f runs on the columnar local backend: an
// unbroken pipeline of
//
//	[cluster-bound lets] for $x [at $p] in <src> (let|where|count)*
//	    [order by ... [count $c where $c le K]] | [group by] return <e>
//
// or a detected equi-join (Info.Joins) followed by the same tail, where
// every let value, where condition, sort key, join key and the return
// expression are vector-compilable scalars (literals, variable references,
// object-field lookups, arithmetic, value comparisons, and/or logic, object
// and array constructors, and a whitelist of scalar builtins), and — after
// a group-by — non-key variables are consumed only through aggregates.
//
// Positional variables and count clauses bind scan positions, so a count
// is eligible only while no preceding filter (or join) has changed the row
// count. An order-by whose tail is "count $c where $c le K" (the count
// variable unused elsewhere) fuses into a bounded top-k. "allowing empty",
// a nested for, order-by before group-by, or any non-vectorizable
// expression declines eligibility and the FLWOR keeps its Local or
// DataFrame mode.
//
// Cluster-bound lets stay hoisted exactly as in the tuple plan: the vector
// scan begins after them, streaming the bound RDD through the driver.
func (c *checker) detectVector(f *ast.FLWOR) *VectorPlan {
	clauses := c.info.pipeline(f)
	if len(clauses) == 0 {
		return nil
	}
	vp := &VectorPlan{}
	bound := map[string]bool{}
	filtered := false
	var rest []ast.Clause
	var pruneHead *ast.ForClause
	if jp := c.info.Joins[f]; jp != nil {
		// detectJoin consumed f.Clauses[0:3] (for/for/where); it only fires
		// on a leading for clause, so no cluster-bound lets were peeled.
		for _, keys := range [][]ast.Expr{jp.LeftKeys, jp.RightKeys, jp.Residual} {
			for _, k := range keys {
				if !c.vectorizableExpr(k) {
					return nil
				}
			}
		}
		vp.Join = true
		bound[jp.Left.Var] = true
		bound[jp.Right.Var] = true
		filtered = true // join output positions are not scan positions
		rest = clauses[3:]
	} else {
		head, ok := clauses[0].(*ast.ForClause)
		if !ok || head.AllowEmpty {
			return nil
		}
		bound[head.Var] = true
		if head.PosVar != "" {
			bound[head.PosVar] = true
			vp.Positional = true
		}
		rest = clauses[1:]
		pruneHead = head
	}
	var group *ast.GroupByClause
	for i := 0; i < len(rest); i++ {
		switch n := rest[i].(type) {
		case *ast.LetClause:
			if !c.vectorizableExpr(n.Value) {
				return nil
			}
			bound[n.Var] = true
		case *ast.WhereClause:
			if !c.vectorizableExpr(n.Cond) {
				return nil
			}
			filtered = true
		case *ast.CountClause:
			if filtered {
				return nil // count no longer equals the scan position
			}
			bound[n.Var] = true
			vp.Positional = true
		case *ast.GroupByClause:
			if i != len(rest)-1 {
				return nil // group-by must be the last clause
			}
			group = n
		case *ast.OrderByClause:
			for _, spec := range n.Specs {
				if spec.Expr == nil || !c.vectorizableExpr(spec.Expr) {
					return nil
				}
			}
			// The sort must end the pipeline, except for the fused top-k
			// tail: "count $c where $c le K" with $c unused in the return.
			tail := rest[i+1:]
			switch len(tail) {
			case 0:
			case 2:
				cc, okC := tail[0].(*ast.CountClause)
				wc, okW := tail[1].(*ast.WhereClause)
				if !okC || !okW {
					return nil
				}
				k, ok := topKBound(wc.Cond, cc.Var)
				if !ok || k < 1 || exprUsesVar(f.Return, cc.Var) {
					return nil
				}
				vp.TopK = k
			default:
				return nil
			}
			vp.OrderBy = n
			i = len(rest) // tail consumed
		default:
			return nil
		}
	}
	if pruneHead != nil && !vp.Positional {
		vp.Prune = prunePredicates(pruneHead.Var, rest)
	}
	if group == nil {
		if !c.vectorizableExpr(f.Return) {
			return nil
		}
		deriveScanColumns(vp, pruneHead, rest, f.Return)
		return vp
	}
	// Group keys evaluate left to right, each binding its variable for the
	// specs after it (mirroring the tuple path's progressive extension).
	keys := map[string]bool{}
	for _, spec := range group.Specs {
		if spec.Expr != nil {
			if !c.vectorizableExpr(spec.Expr) {
				return nil
			}
		} else if !bound[spec.Var] {
			return nil
		}
		keys[spec.Var] = true
		bound[spec.Var] = true
	}
	if !c.vectorizableGroupReturn(f.Return, keys, bound) {
		return nil
	}
	vp.Grouped = true
	deriveScanColumns(vp, pruneHead, rest, f.Return)
	return vp
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
	lit, ok := ol.Key.(*ast.Literal)
	if !ok || lit.Value.Kind() != item.KindString {
		return "", false
	}
	return string(lit.Value.(item.Str)), true
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

// vectorizableExpr reports whether e compiles to a single-valued column
// expression. Every variable reference is acceptable here: pipeline
// bindings become columns, and free variables (globals, outer FLWOR
// bindings) become per-evaluation constants — the runtime falls back to
// the tuple pipeline if such a binding turns out to be a multi-item
// sequence.
func (c *checker) vectorizableExpr(e ast.Expr) bool {
	return c.vectorizable(e, func(string) bool { return true }, nil)
}

// vectorizableGroupReturn checks the return expression of a grouped
// pipeline: key variables and free variables behave as in
// vectorizableExpr, while non-key pipeline variables may be consumed only
// through aggregates the backend can fold — agg($v), agg($v.path...), or
// the #count-of($v#count) call the count rewrite produced.
func (c *checker) vectorizableGroupReturn(e ast.Expr, keys, bound map[string]bool) bool {
	varOK := func(name string) bool {
		// A bound non-key variable holds the per-group concatenation; the
		// backend only materializes it through aggregates.
		return keys[name] || !bound[name]
	}
	aggOK := func(n *ast.FunctionCall) (handled, ok bool) {
		if base, found := CountOfVar(n); found {
			return true, bound[base] && !keys[base]
		}
		_, isUDF := c.functions[n.Name]
		if _, fold := functions.AggregateKind(n.Name); fold && !isUDF && len(n.Args) == 1 {
			base, found := aggArgRoot(n.Args[0])
			return true, found && bound[base] && !keys[base]
		}
		return false, false
	}
	return c.vectorizable(e, varOK, aggOK)
}

// vectorizable is the shared walker behind both checks above: the scalar
// expression grammar is identical, only the treatment of variable
// references (varOK) and — after a group-by — aggregate calls (aggCall,
// consulted before the scalar-builtin whitelist; nil outside groups)
// differs between the pipeline body and a grouped return.
func (c *checker) vectorizable(e ast.Expr, varOK func(string) bool, aggCall func(*ast.FunctionCall) (handled, ok bool)) bool {
	rec := func(ch ast.Expr) bool { return c.vectorizable(ch, varOK, aggCall) }
	switch n := e.(type) {
	case *ast.Literal:
		return true
	case *ast.VarRef:
		return varOK(n.Name)
	case *ast.ObjectLookup:
		lit, ok := n.Key.(*ast.Literal)
		if !ok || lit.Value.Kind() != item.KindString {
			return false
		}
		return rec(n.Input)
	case *ast.Comparison:
		return !n.General && rec(n.L) && rec(n.R)
	case *ast.Arith:
		return rec(n.L) && rec(n.R)
	case *ast.Logic:
		return rec(n.L) && rec(n.R)
	case *ast.Unary:
		return rec(n.Operand)
	case *ast.ObjectConstructor:
		for i := range n.Keys {
			lit, ok := n.Keys[i].(*ast.Literal)
			if !ok || lit.Value.Kind() != item.KindString {
				return false
			}
			if !rec(n.Values[i]) {
				return false
			}
		}
		return true
	case *ast.ArrayConstructor:
		return n.Body == nil || rec(n.Body)
	case *ast.FunctionCall:
		if aggCall != nil {
			if handled, ok := aggCall(n); handled {
				return ok
			}
		}
		if _, isUDF := c.functions[n.Name]; isUDF {
			return false
		}
		if !VectorScalarFunctions[n.Name] {
			return false
		}
		for _, a := range n.Args {
			if !rec(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// CountOfVar recognizes the #count-of($v#count) call the group-by count
// rewrite produces and returns the base variable name. The runtime's
// vector compiler resolves the same shape to a count accumulator, so the
// recognizer is shared rather than duplicated.
func CountOfVar(n *ast.FunctionCall) (string, bool) {
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
			lit, ok := n.Key.(*ast.Literal)
			if !ok || lit.Value.Kind() != item.KindString {
				return "", false
			}
			e = n.Input
		default:
			return "", false
		}
	}
}
