package compiler

import (
	"sort"

	"rumble/internal/ast"
	"rumble/internal/item"
)

// ScanPlan is the column projection of a storage-backed scan — a json-file
// or collection call — that heads a FLWOR: the sorted set of top-level
// fields the FLWOR reads off the scan variable. It exists only when every
// consumption of the variable goes through one of them (scanProjection), in
// every execution mode: the scan's decoders then build just these members
// of each record and validate-and-skip the rest, which is invisible to the
// query by construction. Columns may be empty: the FLWOR needs only the
// presence of each row.
type ScanPlan struct {
	Columns []string
}

// scanProjection is the projection rule: it walks every expression of the
// clauses after the head for clause, and the return, that can observe
// scanVar and collects the top-level fields read through literal-key
// lookups ($x.field). ok is false — the scan must deliver whole rows — as
// soon as anything consumes the variable whole: a bare reference (in a let,
// a return, a function argument, $x[], $x instance of ...), a computed key,
// a group key naming the variable itself, or any expression that binds
// variables of its own (a nested FLWOR, some/every, try/catch), which the
// walk does not look into. Everything else — if, switch, instance of, ||,
// predicates, [], builtin and user function calls — is walked child by
// child. count($x), and the #count-of form a group-by rewrites it to, is
// exempt: counting needs row presence, never row contents.
//
// Later clauses that rebind the variable's name are not tracked; their
// reads are attributed to the scan, which can only widen the projection.
func scanProjection(scanVar string, rest []ast.Clause, ret ast.Expr) (cols []string, ok bool) {
	set := map[string]bool{}
	for _, cl := range rest {
		if g, isGroup := cl.(*ast.GroupByClause); isGroup {
			for _, spec := range g.Specs {
				if spec.Expr == nil && spec.Var == scanVar {
					return nil, false // grouping on the scan variable keys whole rows
				}
			}
		}
		for _, e := range ast.ClauseExprs(cl) {
			if !scanColumns(e, scanVar, set) {
				return nil, false
			}
		}
	}
	if ret != nil && !scanColumns(ret, scanVar, set) {
		return nil, false
	}
	cols = make([]string, 0, len(set))
	for f := range set {
		cols = append(cols, f)
	}
	sort.Strings(cols)
	return cols, true
}

// scanColumns walks e collecting the top-level fields read off scanVar
// through literal-key lookups into cols, and reports false as soon as any
// subexpression consumes the variable whole or binds variables itself.
func scanColumns(e ast.Expr, scanVar string, cols map[string]bool) bool {
	switch n := e.(type) {
	case *ast.VarRef:
		return n.Name != scanVar
	case *ast.FLWOR, *ast.Quantified, *ast.TryCatch:
		return false
	case *ast.ObjectLookup:
		if vr, ok := n.Input.(*ast.VarRef); ok && vr.Name == scanVar {
			lit, ok := n.Key.(*ast.Literal)
			if !ok || lit.Value.Kind() != item.KindString {
				return false
			}
			cols[string(lit.Value.(item.Str))] = true
			return true
		}
	case *ast.FunctionCall:
		if base, found := countOfVar(n); found && base == scanVar {
			return true
		}
		if n.Name == "count" && len(n.Args) == 1 {
			if vr, ok := n.Args[0].(*ast.VarRef); ok && vr.Name == scanVar {
				return true
			}
		}
	}
	for _, ch := range ast.Children(e) {
		if !scanColumns(ch, scanVar, cols) {
			return false
		}
	}
	return true
}

// presenceConsumers are the builtins that observe only how many items their
// argument holds.
var presenceConsumers = map[string]bool{"count": true, "exists": true, "empty": true}

// presenceOnlyFLWOR returns the FLWOR whose result n consumes for its
// cardinality alone — count(F), exists(F), empty(F) over the builtins — or
// nil.
func presenceOnlyFLWOR(n *ast.FunctionCall, isUDF func(string) bool) *ast.FLWOR {
	if !presenceConsumers[n.Name] || len(n.Args) != 1 || isUDF(n.Name) {
		return nil
	}
	f, _ := n.Args[0].(*ast.FLWOR)
	return f
}

// deriveScanPlan applies the projection rule to f: it returns the scan call
// heading f — the in-expression of the first for clause after any
// cluster-bound lets, when that is a json-file or collection call — and its
// plan, nil when f has no such head, is a detected join (two scan
// variables), or consumes the variable whole. presenceOnly reports that f's
// own consumer looks only at its cardinality (presenceOnlyFLWOR): a return
// of the bare head variable — always exactly one item per tuple — then
// reads nothing.
//
// It is a pure function of the AST and the Info tables it reads, so Verify
// re-derives exactly what annotation recorded.
func deriveScanPlan(f *ast.FLWOR, info *Info, isUDF func(string) bool, presenceOnly bool) (*ast.FunctionCall, *ScanPlan) {
	clauses := info.pipeline(f)
	if len(clauses) == 0 {
		return nil, nil
	}
	head, ok := clauses[0].(*ast.ForClause)
	if !ok {
		return nil, nil
	}
	call, ok := head.In.(*ast.FunctionCall)
	if !ok || (call.Name != "json-file" && call.Name != "collection") || isUDF(call.Name) {
		return nil, nil
	}
	if info.Joins[f] != nil {
		return call, nil
	}
	ret := f.Return
	if vr, ok := ret.(*ast.VarRef); ok && presenceOnly && vr.Name == head.Var {
		ret = nil
	}
	cols, ok := scanProjection(head.Var, clauses[1:], ret)
	if !ok {
		return call, nil
	}
	return call, &ScanPlan{Columns: cols}
}

// planScan records f's scan plan, if the rule grants one. Annotation plans
// every FLWOR on its own first and again, presenceOnly, when its consumer
// turns out to be a counting builtin; the second pass can only add a plan.
func (c *checker) planScan(f *ast.FLWOR, presenceOnly bool) {
	if call, plan := deriveScanPlan(f, c.info, c.isUDF, presenceOnly); plan != nil {
		c.info.ScanPlans[call] = plan
	}
}

func (c *checker) isUDF(name string) bool {
	_, ok := c.functions[name]
	return ok
}
