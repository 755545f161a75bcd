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
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"rumble/internal/ast"
	"rumble/internal/item"
	"rumble/internal/lexer"
)

// PlanDiagnostic is one violated plan invariant.
type PlanDiagnostic struct {
	// Code names the invariant, stable across message wording changes:
	// mode-unannotated, mode-child, mode-dataframe-head, vector-plan-missing,
	// vector-plan-orphan, vector-operator, vector-topk, vector-agg,
	// vector-prune, vector-columns, scan-columns, topk,
	// join-head, join-keys, join-strategy, join-split, plan-field-coverage.
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
	"ProbeFilter": true, "Residual": true, "Strategy": true, "BuildLeft": true,
}

// Verify checks the invariants of an analyzed module against its Info and
// returns a *VerifyError listing every violation, or nil when the plan is
// consistent.
func Verify(m *ast.Module, info *Info) error {
	v := &verifier{info: info, udfs: map[string]bool{}, presenceOnly: map[*ast.FLWOR]bool{}, folds: map[*ast.FLWOR]string{}, scans: map[*ast.FunctionCall]bool{}}
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
	if v.topKs != len(info.TopK) {
		v.report("topk", lexer.Pos{}, "%d top-k bound(s) recorded, but only %d sit on an order-by clause of the module", len(info.TopK), v.topKs)
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
	// presenceOnly marks FLWORs whose consumer only counts them and folds
	// the vector FLWORs a VectorAggs call folds, by aggregate name (both
	// set when the walk passes the consumer, before it reaches the FLWOR);
	// scans collects the scan calls whose recorded plan re-derived.
	presenceOnly map[*ast.FLWOR]bool
	folds        map[*ast.FLWOR]string
	scans        map[*ast.FunctionCall]bool
	topKs        int // Info.TopK entries met on an order-by clause
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
	v.checkTopK(f)
	if vp != nil {
		v.checkVectorPlan(f, vp)
	}
	v.checkScanPlan(f)

	for _, cl := range f.Clauses {
		v.clause(cl)
	}
	v.expr(f.Return)
}

func (v *verifier) isUDF(name string) bool { return v.udfs[name] }

// checkTopK re-derives the bound of every order-by clause of f: Info.TopK
// must hold exactly the clauses followed by a count and a where bounding
// it, each with the bound that where keeps. A missing entry only sorts
// more; a surplus or larger one drops rows the where would keep.
func (v *verifier) checkTopK(f *ast.FLWOR) {
	for i, cl := range f.Clauses {
		ob, ok := cl.(*ast.OrderByClause)
		if !ok {
			continue
		}
		want, bounded := topKTail(f.Clauses, i)
		got, recorded := v.info.TopK[ob]
		switch {
		case bounded && !recorded:
			v.report("topk", ob.Pos(), "order by is followed by a count bound to %d rows but records no top-k", want)
		case !bounded && recorded:
			v.report("topk", ob.Pos(), "order by records a top-k of %d but no count and where bound it", got)
		case got != want:
			v.report("topk", ob.Pos(), "order by records a top-k of %d but the AST derives %d", got, want)
		}
		if recorded {
			v.topKs++
		}
	}
}

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
	where, wok := f.Clauses[2].(*ast.WhereClause)
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
	v.checkJoinSplit(f, jp, where, right.Var)
}

// checkJoinSplit re-derives how the where clause's non-key conjuncts split
// between the probe filter and the residual filter (splitProbeFilter). Any
// expression is legal in either; only the split point is an invariant,
// since evaluating a conjunct before the pair is formed changes which pairs
// can raise its errors.
func (v *verifier) checkJoinSplit(f *ast.FLWOR, jp *JoinPlan, where *ast.WhereClause, rightVar string) {
	keys := map[ast.Expr]bool{}
	for _, k := range jp.LeftKeys {
		keys[k] = true
	}
	var want []ast.Expr
	for _, conj := range splitConjuncts(where.Cond) {
		if cmp, ok := conj.(*ast.Comparison); ok && (keys[cmp.L] || keys[cmp.R]) {
			continue
		}
		want = append(want, conj)
	}
	wp, wr := splitProbeFilter(want, rightVar)
	if !slices.Equal(jp.ProbeFilter, wp) || !slices.Equal(jp.Residual, wr) {
		v.report("join-split", f.Pos(), "probe filter and residual filter (%d+%d conjuncts) are not the where clause's non-key conjuncts split at the first reading $%s (%d+%d)",
			len(jp.ProbeFilter), len(jp.Residual), rightVar, len(wp), len(wr))
	}
}

// checkVectorAgg verifies an Info.VectorAggs mark: the call must be
// annotated Vector and wrap a non-grouped, non-sorted vector pipeline,
// whose plan checkVectorPlan re-derives with this call as its tail.
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
	v.folds[f] = n.Name
	vp := v.info.VectorPlans[f]
	if vp == nil || vp.Grouped || vp.OrderBy != nil {
		v.report("vector-agg", n.Pos(), "VectorAggs argument pipeline must be a non-grouped, non-sorted vector plan")
	}
}

// checkVectorPlan re-derives one vector plan through the vector compile
// itself, uncached, with the tail the annotation phase compiled it for: the
// grand aggregate that folds f (Info.VectorAggs), or none. A FLWOR that no
// longer compiles is reported at the construct the compile rejects; one
// that does must reproduce the recorded plan field by field.
func (v *verifier) checkVectorPlan(f *ast.FLWOR, vp *VectorPlan) {
	// The compile takes a join's sides from its plan: one whose sides are
	// not the FLWOR's leading for clauses, already a join-head diagnostic,
	// cannot be recompiled.
	if jp := v.info.Joins[f]; jp != nil && (len(f.Clauses) < 3 || jp.Left != f.Clauses[0] || jp.Right != f.Clauses[1]) {
		return
	}
	k, err := v.info.compileVector(f, v.folds[f])
	if err != nil {
		pos, msg := f.Pos(), err.Error()
		var ce *Error
		if errors.As(err, &ce) {
			pos, msg = ce.Pos, ce.Msg
		}
		v.report("vector-operator", pos, "vector FLWOR does not recompile: %s", msg)
		return
	}
	re := k.Plan
	if vp.Grouped != re.Grouped || vp.Join != re.Join || vp.Positional != re.Positional {
		v.report("vector-operator", f.Pos(), "vector plan Grouped=%v Join=%v Positional=%v but the FLWOR compiles to %v/%v/%v",
			vp.Grouped, vp.Join, vp.Positional, re.Grouped, re.Join, re.Positional)
	}
	if vp.OrderBy != re.OrderBy {
		v.report("vector-topk", f.Pos(), "vector plan's OrderBy is not the order-by clause the FLWOR compiles to sort")
	}
	if vp.TopK != re.TopK {
		v.report("vector-topk", f.Pos(), "vector plan TopK=%d but the FLWOR compiles to %d", vp.TopK, re.TopK)
	}
	// An extra or altered prune predicate could skip a segment holding rows
	// the query keeps.
	if !slices.EqualFunc(vp.Prune, re.Prune, func(p, d PrunePred) bool {
		return p.Field == d.Field && p.Op == d.Op &&
			p.Lit != nil && p.Lit.Kind() == d.Lit.Kind() && item.DeepEqual(p.Lit, d.Lit)
	}) {
		v.report("vector-prune", f.Pos(), "vector plan's %d prune predicate(s) are not the %d the FLWOR compiles to", len(vp.Prune), len(re.Prune))
	}
	// A missing column would make the lane scan skip lanes the pipeline
	// reads, and a spuriously clear AllColumns would run whole-row
	// consumers against projected batches.
	if vp.AllColumns != re.AllColumns || !slices.Equal(vp.Columns, re.Columns) {
		v.report("vector-columns", f.Pos(), "vector plan AllColumns=%v Columns %v but the FLWOR compiles to AllColumns=%v Columns %v",
			vp.AllColumns, vp.Columns, re.AllColumns, re.Columns)
	}
}
