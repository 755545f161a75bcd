package compiler

import (
	"rumble/internal/ast"
	"rumble/internal/item"
)

// topKTail recognizes the bounded sort "order by … count $c where $c le K"
// at clauses[i], an order-by clause: the next clause counts and the one
// after bounds the count to a static rank. It returns the number of rows
// the where can keep, 0 for a bound below 1. The count still binds $c, so
// the return may read it; every backend keeps only the first K rows of the
// sort, which is all the where lets through.
func topKTail(clauses []ast.Clause, i int) (int64, bool) {
	if i+2 >= len(clauses) {
		return 0, false
	}
	cc, okC := clauses[i+1].(*ast.CountClause)
	wc, okW := clauses[i+2].(*ast.WhereClause)
	if !okC || !okW {
		return 0, false
	}
	k, ok := topKBound(wc.Cond, cc.Var)
	return max(k, 0), ok
}

// topKBound recognizes a where condition that bounds a count variable to a
// static rank: "$c le K" / "$c lt K" or the flipped "K ge $c" / "K gt $c"
// (value comparisons with an integer literal K), returning the inclusive
// bound.
func topKBound(cond ast.Expr, countVar string) (int64, bool) {
	cmp, ok := cond.(*ast.Comparison)
	if !ok || cmp.General {
		return 0, false
	}
	isCount := func(e ast.Expr) bool {
		vr, ok := e.(*ast.VarRef)
		return ok && vr.Name == countVar
	}
	var lit ast.Expr
	switch {
	case isCount(cmp.L) && (cmp.Op == "le" || cmp.Op == "lt"):
		lit = cmp.R
	case isCount(cmp.R) && (cmp.Op == "ge" || cmp.Op == "gt"):
		lit = cmp.L
	default:
		return 0, false
	}
	k, ok := literalInt(lit)
	if !ok {
		return 0, false
	}
	if cmp.Op == "lt" || cmp.Op == "gt" {
		// Strict: one rank fewer, without wrapping below the smallest int.
		return max(k, 1) - 1, true
	}
	return k, true
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
