// Compiled-plan invariant verification. Analyze produces a mode-annotated
// tree plus side tables (vector plans, join plans, pushdown marks) that the
// runtime consumes without re-checking; a bug that records an inconsistent
// annotation silently compiles to the wrong backend. Verify re-walks the
// analyzed module and checks every invariant the runtime relies on,
// returning structured diagnostics instead of a single opaque error so
// tests and the server can report exactly which invariant broke.
//
// Verification is meant to be cheap enough to run on every compile in
// tests, and behind RUMBLE_VERIFY_PLANS=1 in servers.
package compiler

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"rumble/internal/ast"
	"rumble/internal/functions"
	"rumble/internal/item"
	"rumble/internal/lexer"
)

// PlanDiagnostic is one violated plan invariant.
type PlanDiagnostic struct {
	// Code names the invariant, stable across message wording changes:
	// mode-unannotated, mode-child, mode-dataframe-head, vector-plan-missing,
	// vector-plan-orphan, vector-operator, vector-topk, vector-agg,
	// vector-count-zero, vector-prune, vector-columns, scan-columns,
	// join-head, join-keys, join-strategy, plan-field-coverage.
	Code string
	Pos  lexer.Pos
	Msg  string
}

func (d PlanDiagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Code, d.Msg)
}

// VerifyError is the non-nil result of Verify: one diagnostic per violated
// invariant, in source order.
type VerifyError struct {
	Diags []PlanDiagnostic
}

func (e *VerifyError) Error() string {
	msgs := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		msgs[i] = d.String()
	}
	return fmt.Sprintf("plan verification failed (%d invariant(s)):\n  %s",
		len(e.Diags), strings.Join(msgs, "\n  "))
}

// verifiedVectorPlanFields lists the VectorPlan fields the verifier checks.
// A reflection pass compares this against the struct, so adding a field to
// VectorPlan without teaching Verify about it is itself a diagnostic.
var verifiedVectorPlanFields = map[string]bool{
	"Grouped": true, "OrderBy": true, "TopK": true, "Join": true, "Positional": true,
	"Prune": true, "Columns": true, "AllColumns": true,
}

// verifiedScanPlanFields is the same coverage contract for ScanPlan.
var verifiedScanPlanFields = map[string]bool{"Columns": true}

// verifiedJoinPlanFields is the same coverage contract for JoinPlan.
var verifiedJoinPlanFields = map[string]bool{
	"Left": true, "Right": true, "LeftKeys": true, "RightKeys": true,
	"Residual": true, "Strategy": true, "BuildLeft": true,
}

// Verify checks the invariants of an analyzed module against its Info and
// returns a *VerifyError listing every violation, or nil when the plan is
// consistent.
func Verify(m *ast.Module, info *Info) error {
	v := &verifier{info: info, udfs: map[string]bool{}, presenceOnly: map[*ast.FLWOR]bool{}, scans: map[*ast.FunctionCall]bool{}}
	for _, fd := range m.Functions {
		v.udfs[fd.Name] = true
	}
	v.checkFieldCoverage()
	for _, vd := range m.Vars {
		v.expr(vd.Init)
	}
	for _, fd := range m.Functions {
		v.expr(fd.Body)
	}
	v.expr(m.Body)
	if len(v.scans) != len(info.ScanPlans) {
		// Every recorded plan matched its FLWOR's derivation, so a surplus
		// one sits on a call that heads no FLWOR: it would project a scan
		// whose rows nothing vetted.
		v.report("scan-columns", lexer.Pos{}, "%d scan plan(s) recorded, but only %d head a FLWOR that derives one", len(info.ScanPlans), len(v.scans))
	}
	if len(v.diags) == 0 {
		return nil
	}
	sort.SliceStable(v.diags, func(i, j int) bool {
		a, b := v.diags[i].Pos, v.diags[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return &VerifyError{Diags: v.diags}
}

type verifier struct {
	info  *Info
	diags []PlanDiagnostic
	udfs  map[string]bool
	// presenceOnly marks FLWORs whose consumer only counts them (set when
	// the walk passes the consumer, before it reaches the FLWOR); scans
	// collects the scan calls whose recorded plan re-derived.
	presenceOnly map[*ast.FLWOR]bool
	scans        map[*ast.FunctionCall]bool
}

func (v *verifier) report(code string, pos lexer.Pos, format string, args ...any) {
	v.diags = append(v.diags, PlanDiagnostic{Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// checkFieldCoverage fails when VectorPlan or JoinPlan gained a field the
// verifier does not know about: every plan field must be consumed by
// exactly one verification rule.
func (v *verifier) checkFieldCoverage() {
	check := func(t reflect.Type, covered map[string]bool) {
		for i := 0; i < t.NumField(); i++ {
			if name := t.Field(i).Name; !covered[name] {
				v.report("plan-field-coverage", lexer.Pos{},
					"%s field %s is not covered by any plan verification rule; extend Verify", t.Name(), name)
			}
		}
	}
	check(reflect.TypeOf(VectorPlan{}), verifiedVectorPlanFields)
	check(reflect.TypeOf(JoinPlan{}), verifiedJoinPlanFields)
	check(reflect.TypeOf(ScanPlan{}), verifiedScanPlanFields)
}

// expr checks one expression node and recurses into its children.
func (v *verifier) expr(e ast.Expr) {
	if e == nil {
		return
	}
	mode, annotated := v.info.Modes[e]
	if !annotated {
		v.report("mode-unannotated", e.Pos(), "%T has no execution-mode annotation", e)
	}
	switch n := e.(type) {
	case *ast.Literal, *ast.ContextItem:
	case *ast.VarRef:
	case *ast.CommaExpr:
		for _, ch := range n.Exprs {
			v.expr(ch)
		}
	case *ast.ObjectConstructor:
		for i := range n.Keys {
			v.expr(n.Keys[i])
			v.expr(n.Values[i])
		}
	case *ast.ArrayConstructor:
		v.expr(n.Body)
	case *ast.Unary:
		v.expr(n.Operand)
	case *ast.Arith:
		v.expr(n.L)
		v.expr(n.R)
	case *ast.RangeExpr:
		v.expr(n.L)
		v.expr(n.R)
	case *ast.ConcatExpr:
		v.expr(n.L)
		v.expr(n.R)
	case *ast.Comparison:
		v.expr(n.L)
		v.expr(n.R)
		if call := v.info.VectorCountZero[n]; call != nil {
			v.checkCountZero(n, call, mode)
		}
	case *ast.Logic:
		v.expr(n.L)
		v.expr(n.R)
	case *ast.Predicate:
		v.childMode(e, n.Input, mode)
		v.expr(n.Input)
		v.expr(n.Pred)
	case *ast.SimpleMap:
		v.childMode(e, n.Input, mode)
		v.expr(n.Input)
		v.expr(n.Mapping)
	case *ast.ObjectLookup:
		v.childMode(e, n.Input, mode)
		v.expr(n.Input)
		v.expr(n.Key)
	case *ast.ArrayLookup:
		v.childMode(e, n.Input, mode)
		v.expr(n.Input)
		v.expr(n.Index)
	case *ast.ArrayUnbox:
		v.childMode(e, n.Input, mode)
		v.expr(n.Input)
	case *ast.FunctionCall:
		if v.info.VectorAggs[n] {
			v.checkVectorAgg(n, mode)
		}
		if f := presenceOnlyFLWOR(n, v.isUDF); f != nil {
			v.presenceOnly[f] = true
		}
		for _, a := range n.Args {
			v.expr(a)
		}
	case *ast.IfExpr:
		v.expr(n.Cond)
		v.expr(n.Then)
		v.expr(n.Else)
	case *ast.SwitchExpr:
		v.expr(n.Input)
		for _, cs := range n.Cases {
			for _, val := range cs.Values {
				v.expr(val)
			}
			v.expr(cs.Result)
		}
		v.expr(n.Default)
	case *ast.TryCatch:
		v.expr(n.Try)
		v.expr(n.Catch)
	case *ast.Quantified:
		for _, b := range n.Bindings {
			v.expr(b.In)
		}
		v.expr(n.Satisfies)
	case *ast.InstanceOf:
		v.expr(n.Input)
	case *ast.TreatAs:
		v.expr(n.Input)
	case *ast.CastableAs:
		v.expr(n.Input)
	case *ast.CastAs:
		v.expr(n.Input)
	case *ast.FLWOR:
		v.checkFLWOR(n, mode)
	}
}

// childMode enforces the parallelism-preserving rule of path steps,
// predicates, simple map and lookups: the node executes as an RDD exactly
// when its input does.
func (v *verifier) childMode(parent, input ast.Expr, mode Mode) {
	inMode := v.info.ModeOf(input)
	if (mode == ModeRDD) != inMode.Parallel() {
		v.report("mode-child", parent.Pos(),
			"%T is annotated %s but its input is %s; parallelism-preserving nodes must be RDD exactly when their input is parallel",
			parent, mode, inMode)
	}
}

// checkFLWOR verifies the FLWOR-level plan tables: DataFrame head shape,
// vector plan presence and contents, and the join plan.
func (v *verifier) checkFLWOR(f *ast.FLWOR, mode Mode) {
	vp := v.info.VectorPlans[f]
	jp := v.info.Joins[f]

	if mode == ModeVector && vp == nil {
		v.report("vector-plan-missing", f.Pos(), "FLWOR is annotated Vector but has no VectorPlan")
	}
	if vp != nil && mode != ModeVector {
		v.report("vector-plan-orphan", f.Pos(), "FLWOR has a VectorPlan but is annotated %s", mode)
	}
	if mode == ModeDataFrame {
		clauses := v.info.pipeline(f)
		head, ok := firstFor(clauses)
		switch {
		case !ok:
			v.report("mode-dataframe-head", f.Pos(), "DataFrame FLWOR does not start with a for clause after cluster-bound lets")
		case head.AllowEmpty:
			v.report("mode-dataframe-head", f.Pos(), "DataFrame FLWOR head for clause allows empty")
		case !v.info.ModeOf(head.In).Parallel():
			v.report("mode-dataframe-head", head.In.Pos(),
				"DataFrame FLWOR head input is annotated %s; must be parallel", v.info.ModeOf(head.In))
		}
	}
	if jp != nil {
		v.checkJoin(f, jp)
	}
	if vp != nil {
		v.checkVectorPlan(f, vp, jp)
	}
	v.checkScanPlan(f)

	for _, cl := range f.Clauses {
		v.clause(cl)
	}
	v.expr(f.Return)
}

func (v *verifier) isUDF(name string) bool { return v.udfs[name] }

// checkScanPlan verifies the column projection recorded for f's head scan:
// it must re-derive exactly from the AST. A missing column would make the
// scan's decoders skip a member the FLWOR reads; a plan on a FLWOR that
// consumes its variable whole would hand projected rows to a whole-row
// consumer. A derivable plan that was not recorded only decodes more, but
// is reported too: the explain output would lie about what the scan does.
func (v *verifier) checkScanPlan(f *ast.FLWOR) {
	call, want := deriveScanPlan(f, v.info, v.isUDF, v.presenceOnly[f])
	if call == nil {
		return
	}
	got := v.info.ScanPlans[call]
	switch {
	case got == nil && want == nil:
	case got == nil:
		v.report("scan-columns", f.Pos(), "FLWOR derives the scan projection %v but none is recorded", want.Columns)
	case want == nil:
		v.report("scan-columns", f.Pos(), "scan plan projects %v but the FLWOR consumes its scan variable whole", got.Columns)
	case !slices.Equal(got.Columns, want.Columns):
		v.report("scan-columns", f.Pos(), "scan plan Columns %v does not re-derive from the AST (%v)", got.Columns, want.Columns)
	default:
		v.scans[call] = true
	}
}

// clause recurses into the expressions of one FLWOR clause.
func (v *verifier) clause(cl ast.Clause) {
	for _, e := range ast.ClauseExprs(cl) {
		v.expr(e)
	}
}

func firstFor(clauses []ast.Clause) (*ast.ForClause, bool) {
	if len(clauses) == 0 {
		return nil, false
	}
	fc, ok := clauses[0].(*ast.ForClause)
	return fc, ok
}

// checkJoin verifies one join plan: the consumed clause shape, key pairing
// and bounds, and strategy legality.
func (v *verifier) checkJoin(f *ast.FLWOR, jp *JoinPlan) {
	if len(f.Clauses) < 3 {
		v.report("join-head", f.Pos(), "join plan on a FLWOR with %d clauses; the plan consumes for/for/where", len(f.Clauses))
		return
	}
	left, lok := f.Clauses[0].(*ast.ForClause)
	right, rok := f.Clauses[1].(*ast.ForClause)
	_, wok := f.Clauses[2].(*ast.WhereClause)
	if !lok || !rok || !wok {
		v.report("join-head", f.Pos(), "join plan FLWOR must start for/for/where")
		return
	}
	if jp.Left != left || jp.Right != right {
		v.report("join-head", f.Pos(), "join plan sides do not reference the FLWOR's leading for clauses")
	}
	if len(jp.LeftKeys) != len(jp.RightKeys) {
		v.report("join-keys", f.Pos(), "join plan has %d left keys but %d right keys", len(jp.LeftKeys), len(jp.RightKeys))
	}
	if len(jp.LeftKeys) == 0 {
		v.report("join-keys", f.Pos(), "join plan has no key pairs; a keyless join is a cross product")
	}
	if len(jp.LeftKeys) > MaxJoinKeys {
		v.report("join-keys", f.Pos(), "join plan has %d key pairs, exceeding MaxJoinKeys=%d", len(jp.LeftKeys), MaxJoinKeys)
	}
	switch jp.Strategy {
	case JoinHash:
		if jp.BuildLeft {
			v.report("join-strategy", f.Pos(), "hash join sets BuildLeft; the flag is only meaningful for broadcast joins")
		}
	case JoinBroadcast:
		small := right.In
		if jp.BuildLeft {
			small = left.In
		}
		if !broadcastable(small) {
			v.report("join-strategy", f.Pos(), "broadcast join build side is not statically driver-resident")
		}
	default:
		v.report("join-strategy", f.Pos(), "unknown join strategy %d", int(jp.Strategy))
	}
	// Residual conjuncts ride along as post-join filters; any expression is
	// legal there, so Residual is covered by being allowed to be anything.
}

// checkVectorAgg verifies an Info.VectorAggs mark: the call must be
// annotated Vector and wrap a non-grouped, non-sorted vector pipeline.
func (v *verifier) checkVectorAgg(n *ast.FunctionCall, mode Mode) {
	if mode != ModeVector {
		v.report("vector-agg", n.Pos(), "call is marked VectorAggs but annotated %s", mode)
	}
	if !IsAggregate(n.Name) || len(n.Args) != 1 {
		v.report("vector-agg", n.Pos(), "call %s/%d is marked VectorAggs but is not a single-argument grand aggregate", n.Name, len(n.Args))
		return
	}
	f, ok := n.Args[0].(*ast.FLWOR)
	if !ok {
		v.report("vector-agg", n.Pos(), "VectorAggs argument is not a FLWOR")
		return
	}
	vp := v.info.VectorPlans[f]
	if vp == nil || vp.Grouped || vp.OrderBy != nil {
		v.report("vector-agg", n.Pos(), "VectorAggs argument pipeline must be a non-grouped, non-sorted vector plan")
	}
}

// checkCountZero verifies an Info.VectorCountZero mark.
func (v *verifier) checkCountZero(n *ast.Comparison, call *ast.FunctionCall, mode Mode) {
	if mode != ModeVector {
		v.report("vector-count-zero", n.Pos(), "comparison is marked VectorCountZero but annotated %s", mode)
	}
	if call.Name != "count" || len(call.Args) != 1 {
		v.report("vector-count-zero", n.Pos(), "VectorCountZero target must be count/1, got %s/%d", call.Name, len(call.Args))
		return
	}
	f, ok := call.Args[0].(*ast.FLWOR)
	if !ok {
		v.report("vector-count-zero", n.Pos(), "VectorCountZero count argument is not a FLWOR")
		return
	}
	vp := v.info.VectorPlans[f]
	if vp == nil || vp.Grouped || vp.OrderBy != nil {
		v.report("vector-count-zero", n.Pos(), "VectorCountZero pipeline must be a non-grouped, non-sorted vector plan")
	}
}

// checkVectorPlan verifies one vector plan against the FLWOR it annotates:
// the clause chain must contain only whitelisted vector operators, every
// embedded expression must be a vector-compilable scalar, the recorded
// order-by/top-k must re-derive from the AST, and the join flag must match
// the join table.
func (v *verifier) checkVectorPlan(f *ast.FLWOR, vp *VectorPlan, jp *JoinPlan) {
	clauses := v.info.pipeline(f)
	grouped := false
	positional := false
	sawOrderBy := false
	var topK int64
	var pruneHead *ast.ForClause
	var pruneRest []ast.Clause

	if vp.Join {
		if jp == nil {
			v.report("vector-operator", f.Pos(), "vector plan sets Join but the FLWOR has no join plan")
			return
		}
		if len(clauses) != len(f.Clauses) {
			v.report("vector-operator", f.Pos(), "vector join plan cannot follow cluster-bound lets")
			return
		}
		if len(clauses) < 3 {
			return // join-head already reported
		}
		for _, keys := range [][]ast.Expr{jp.LeftKeys, jp.RightKeys, jp.Residual} {
			for _, k := range keys {
				v.vectorScalar(k, false)
			}
		}
		positional = true // join output positions are not scan positions
		clauses = clauses[3:]
	} else {
		head, ok := firstFor(clauses)
		if !ok {
			v.report("vector-operator", f.Pos(), "vector plan head is not a for clause")
			return
		}
		if head.AllowEmpty {
			v.report("vector-operator", head.Pos(), "vector scan head allows empty; the backend has no outer-scan operator")
		}
		clauses = clauses[1:]
		pruneHead, pruneRest = head, clauses
	}

	for i := 0; i < len(clauses); i++ {
		switch n := clauses[i].(type) {
		case *ast.LetClause:
			v.vectorScalar(n.Value, false)
		case *ast.WhereClause:
			v.vectorScalar(n.Cond, false)
		case *ast.CountClause:
			positional = true
		case *ast.GroupByClause:
			if i != len(clauses)-1 {
				v.report("vector-operator", n.Pos(), "vector group-by must be the final operator")
			}
			for _, spec := range n.Specs {
				if spec.Expr != nil {
					v.vectorScalar(spec.Expr, false)
				}
			}
			grouped = true
		case *ast.OrderByClause:
			sawOrderBy = true
			if vp.OrderBy != n {
				v.report("vector-topk", n.Pos(), "vector plan's OrderBy does not reference the pipeline's order-by clause")
			}
			for _, spec := range n.Specs {
				v.vectorScalar(spec.Expr, false)
			}
			// The sort ends the pipeline except for the fused top-k tail.
			tail := clauses[i+1:]
			switch len(tail) {
			case 0:
			case 2:
				cc, okC := tail[0].(*ast.CountClause)
				wc, okW := tail[1].(*ast.WhereClause)
				if !okC || !okW {
					v.report("vector-operator", n.Pos(), "vector order-by is followed by non-top-k clauses")
					break
				}
				k, ok := topKBound(wc.Cond, cc.Var)
				if !ok {
					v.report("vector-topk", wc.Pos(), "vector top-k tail does not bound the count variable with a literal rank")
					break
				}
				topK = k
			default:
				v.report("vector-operator", n.Pos(), "vector order-by must end the pipeline (or fuse a count/where top-k tail)")
			}
			i = len(clauses)
		default:
			v.report("vector-operator", clauses[i].Pos(),
				"clause %T is not a whitelisted vector operator (let/where/count/order-by/group-by)", clauses[i])
		}
	}
	v.vectorScalar(f.Return, grouped)

	if vp.Grouped != grouped {
		v.report("vector-operator", f.Pos(), "vector plan Grouped=%v but the pipeline's group-by presence is %v", vp.Grouped, grouped)
	}
	if vp.OrderBy != nil && !sawOrderBy {
		v.report("vector-topk", f.Pos(), "vector plan records an order-by the pipeline does not contain")
	}
	if vp.TopK != 0 || topK != 0 {
		if vp.TopK < 1 {
			v.report("vector-topk", f.Pos(), "vector top-k bound is %d; a fused top-k must keep at least one row", vp.TopK)
		} else if vp.TopK != topK {
			v.report("vector-topk", f.Pos(), "vector plan TopK=%d but the AST derives %d", vp.TopK, topK)
		}
	}
	if vp.Join && jp == nil {
		v.report("vector-operator", f.Pos(), "vector plan sets Join without a join plan")
	}
	if vp.Positional && !positionalEligible(f, vp) {
		v.report("vector-operator", f.Pos(), "vector plan sets Positional but the pipeline binds no scan positions")
	}
	_ = positional

	if len(vp.Prune) > 0 {
		switch {
		case vp.Join || vp.Positional:
			// Skipping segments renumbers scan positions and bypasses the
			// join's consumed where clause: pruning there changes results.
			v.report("vector-prune", f.Pos(), "vector plan pushes prune predicates into a join or positional pipeline")
		case pruneHead == nil:
		default:
			// The recorded predicates must be a prefix of what the AST
			// derives: a shorter prefix only prunes less, but any extra or
			// altered predicate could skip rows the query would keep.
			derived := prunePredicates(pruneHead.Var, pruneRest)
			if len(vp.Prune) > len(derived) {
				v.report("vector-prune", f.Pos(), "vector plan records %d prune predicates but the AST derives only %d", len(vp.Prune), len(derived))
			} else {
				for i, p := range vp.Prune {
					d := derived[i]
					if p.Field != d.Field || p.Op != d.Op ||
						p.Lit == nil || p.Lit.Kind() != d.Lit.Kind() || !item.DeepEqual(p.Lit, d.Lit) {
						v.report("vector-prune", f.Pos(), "prune predicate %d (%s %s) does not re-derive from the AST", i, p.Field, p.Op)
					}
				}
			}
		}
	}

	// The recorded projection must re-derive exactly from the AST: a
	// missing column would make the lane scan skip lanes the pipeline
	// reads, and a spuriously clear AllColumns would run whole-row
	// consumers against projected batches.
	re := &VectorPlan{}
	deriveScanColumns(re, pruneHead, pruneRest, f.Return)
	if vp.AllColumns != re.AllColumns {
		v.report("vector-columns", f.Pos(), "vector plan AllColumns=%v but the AST derives %v", vp.AllColumns, re.AllColumns)
	} else if !vp.AllColumns {
		if !slices.Equal(vp.Columns, re.Columns) {
			v.report("vector-columns", f.Pos(), "vector plan Columns %v does not re-derive from the AST (%v)", vp.Columns, re.Columns)
		}
	}
}

// positionalEligible reports whether the pipeline binds scan positions: a
// positional for variable, a count clause, or a join (whose output
// positions the backend derives from probe order).
func positionalEligible(f *ast.FLWOR, vp *VectorPlan) bool {
	if vp.Join {
		return true
	}
	for _, cl := range f.Clauses {
		switch n := cl.(type) {
		case *ast.ForClause:
			if n.PosVar != "" {
				return true
			}
		case *ast.CountClause:
			return true
		}
	}
	return false
}

// vectorScalar checks that e stays inside the vector backend's scalar
// expression whitelist: literals, variable references, literal-key object
// lookups and constructors, arithmetic, value comparisons, and/or logic,
// and whitelisted scalar builtins — plus, in a grouped return position,
// the foldable aggregates. Anything else is an operator the columnar
// backend does not implement.
func (v *verifier) vectorScalar(e ast.Expr, groupedReturn bool) {
	if e == nil {
		return
	}
	rec := func(ch ast.Expr) { v.vectorScalar(ch, groupedReturn) }
	switch n := e.(type) {
	case *ast.Literal:
	case *ast.VarRef:
	case *ast.ObjectLookup:
		if _, ok := n.Key.(*ast.Literal); !ok {
			v.report("vector-operator", n.Pos(), "vector object lookup key must be a literal")
		}
		rec(n.Input)
	case *ast.Comparison:
		if n.General {
			v.report("vector-operator", n.Pos(), "general comparison is not a vector operator; only value comparisons vectorize")
		}
		rec(n.L)
		rec(n.R)
	case *ast.Arith:
		rec(n.L)
		rec(n.R)
	case *ast.Logic:
		rec(n.L)
		rec(n.R)
	case *ast.Unary:
		rec(n.Operand)
	case *ast.ObjectConstructor:
		for i := range n.Keys {
			if _, ok := n.Keys[i].(*ast.Literal); !ok {
				v.report("vector-operator", n.Pos(), "vector object constructor keys must be literals")
			}
			rec(n.Values[i])
		}
	case *ast.ArrayConstructor:
		rec(n.Body)
	case *ast.FunctionCall:
		if groupedReturn {
			if _, ok := countOfVar(n); ok {
				return
			}
			if _, fold := functions.AggregateKind(n.Name); fold && len(n.Args) == 1 {
				return // aggregate arguments fold inside the backend
			}
		}
		if !vectorScalarFunctions[n.Name] {
			v.report("vector-operator", n.Pos(), "call %s/%d is not a whitelisted vector scalar function", n.Name, len(n.Args))
			return
		}
		for _, a := range n.Args {
			rec(a)
		}
	default:
		v.report("vector-operator", e.Pos(), "%T is not a vector-compilable expression", e)
	}
}
