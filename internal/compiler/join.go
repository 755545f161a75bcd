// Static equi-join detection. The paper's FLWOR-on-Spark mapping leaves a
// nested "for A for B where key(A) eq key(B)" to degrade into a quadratic
// nested loop; this pass recognizes the shape on the mode-annotated AST and
// records an explicit join plan so the runtime can execute it as a hash or
// broadcast join instead. Detection is entirely static — it hangs off the
// mode annotation exactly as the roadmap prescribes — and declines
// conservatively: any query it does not recognize keeps the (correct)
// nested-loop evaluation.
package compiler

import "rumble/internal/ast"

// JoinStrategy is the physical join operator the compiler selected.
type JoinStrategy int

// The two equi-join strategies: a shuffle hash join, or a broadcast hash
// join when one side is statically known to be driver-resident and small.
const (
	JoinHash JoinStrategy = iota
	JoinBroadcast
)

// String renders the strategy the way Explain prints it.
func (s JoinStrategy) String() string {
	if s == JoinBroadcast {
		return "broadcast"
	}
	return "hash"
}

// MaxJoinKeys bounds how many equality conjuncts become physical join
// keys; further equality conjuncts stay in the residual predicate. The
// bound keeps the runtime's per-key type masks in one machine word.
const MaxJoinKeys = 8

// JoinPlan describes one statically detected equi-join: the FLWOR's two
// leading for clauses, the key expression pairs extracted from the where
// clause (LeftKeys[i] references only the left variable, RightKeys[i] only
// the right), and the conjuncts that did not split. Of those, the leading
// run that does not read the right variable is ProbeFilter: the local joins
// test it once per matched left (probe) row, before the row expands into
// its pairs. The rest, from the first conjunct that reads the right
// variable on, is Residual, a filter over the joined pairs. The runtime
// consumes the plan in place of the first three clauses (for, for, where)
// of the FLWOR.
type JoinPlan struct {
	Left, Right         *ast.ForClause
	LeftKeys, RightKeys []ast.Expr
	ProbeFilter         []ast.Expr
	Residual            []ast.Expr
	Strategy            JoinStrategy
	// BuildLeft is set on broadcast joins whose left side is the small,
	// collected one; otherwise the right side is built/broadcast.
	BuildLeft bool
}

// detectJoin recognizes the equi-join shape on one FLWOR whose clauses are
// already mode-annotated. It returns nil when the FLWOR must keep
// nested-loop evaluation:
//
//   - the first two clauses must be plain for clauses (no positional
//     variable, no "allowing empty", distinct variables) over parallel
//     (RDD/DataFrame) inputs — both sides must be cluster-resident for a
//     distributed join to pay off;
//   - the right input must not depend on the left variable (otherwise the
//     nested loop is a genuine dependent iteration, not a join);
//   - the third clause must be a where whose condition contains at least
//     one conjunct of the form "leftExpr eq rightExpr" splitting cleanly
//     by variable use. Remaining conjuncts become the probe filter and the
//     residual filter (splitProbeFilter).
func (c *checker) detectJoin(f *ast.FLWOR) *JoinPlan {
	if !c.cluster || c.noJoin || len(f.Clauses) < 3 {
		return nil
	}
	left, ok := f.Clauses[0].(*ast.ForClause)
	if !ok || left.PosVar != "" || left.AllowEmpty {
		return nil
	}
	right, ok := f.Clauses[1].(*ast.ForClause)
	if !ok || right.PosVar != "" || right.AllowEmpty || right.Var == left.Var {
		return nil
	}
	where, ok := f.Clauses[2].(*ast.WhereClause)
	if !ok {
		return nil
	}
	if !c.info.ModeOf(left.In).Parallel() || !c.info.ModeOf(right.In).Parallel() {
		return nil
	}
	if exprUsesVar(right.In, left.Var) {
		return nil
	}
	plan := &JoinPlan{Left: left, Right: right}
	for _, conj := range splitConjuncts(where.Cond) {
		l, r, ok := splitEquiPair(conj, left.Var, right.Var)
		if ok && len(plan.LeftKeys) < MaxJoinKeys {
			plan.LeftKeys = append(plan.LeftKeys, l)
			plan.RightKeys = append(plan.RightKeys, r)
			continue
		}
		plan.Residual = append(plan.Residual, conj)
	}
	if len(plan.LeftKeys) == 0 {
		return nil
	}
	plan.ProbeFilter, plan.Residual = splitProbeFilter(plan.Residual, right.Var)
	switch {
	case broadcastable(right.In):
		plan.Strategy = JoinBroadcast
	case broadcastable(left.In):
		plan.Strategy = JoinBroadcast
		plan.BuildLeft = true
	default:
		plan.Strategy = JoinHash
	}
	return plan
}

// splitProbeFilter splits the non-key conjuncts, in and-spine order, into
// the leading run that does not read the right variable and the rest. A
// nested loop evaluates a matched pair's conjuncts left to right and stops
// at the first false one, so only a prefix may move ahead of the pair: a
// probe-only conjunct behind one that reads the right variable may raise
// an error on a pair that earlier conjunct drops.
func splitProbeFilter(conjs []ast.Expr, rightVar string) (probe, residual []ast.Expr) {
	n := 0
	for n < len(conjs) && !exprUsesVar(conjs[n], rightVar) {
		n++
	}
	return conjs[:n:n], conjs[n:]
}

// splitConjuncts flattens the and-tree of a where condition.
func splitConjuncts(e ast.Expr) []ast.Expr {
	if l, ok := e.(*ast.Logic); ok && l.IsAnd {
		return append(splitConjuncts(l.L), splitConjuncts(l.R)...)
	}
	return []ast.Expr{e}
}

// splitEquiPair decides whether one conjunct is a join-key equality: a
// value comparison "eq" whose operands reference exactly one of the two
// join variables each (either orientation). Only the value form qualifies
// — the general "=" has existential semantics over sequences, which a
// single-key hash table does not implement.
func splitEquiPair(e ast.Expr, leftVar, rightVar string) (l, r ast.Expr, ok bool) {
	cmp, isCmp := e.(*ast.Comparison)
	if !isCmp || cmp.General || cmp.Op != "eq" {
		return nil, nil, false
	}
	lUsesL, lUsesR := exprUsesVar(cmp.L, leftVar), exprUsesVar(cmp.L, rightVar)
	rUsesL, rUsesR := exprUsesVar(cmp.R, leftVar), exprUsesVar(cmp.R, rightVar)
	switch {
	case lUsesL && !lUsesR && rUsesR && !rUsesL:
		return cmp.L, cmp.R, true
	case lUsesR && !lUsesL && rUsesL && !rUsesR:
		return cmp.R, cmp.L, true
	default:
		return nil, nil, false
	}
}

// exprUsesVar reports whether any variable reference in e names v. The
// check is conservative about shadowing: a nested binding of the same name
// still counts as a use, which at worst demotes a key conjunct to the
// residual filter.
func exprUsesVar(e ast.Expr, v string) bool {
	uses := map[string]*useInfo{v: {}}
	collectUses(e, uses)
	return uses[v].plainUses > 0 || len(uses[v].countCalls) > 0
}

// broadcastable reports whether a for-clause input is statically known to
// be small enough to collect on the driver and broadcast: parallelize()
// distributes a sequence the driver materializes anyway, so its data is
// driver-resident by construction. File-backed sources (json-file,
// collection) have statically unknown cardinality and stay on the shuffle
// path.
func broadcastable(e ast.Expr) bool {
	call, ok := e.(*ast.FunctionCall)
	return ok && call.Name == "parallelize"
}
