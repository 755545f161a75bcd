package ast

// Children returns the direct subexpressions of e in evaluation order, nil
// entries dropped: the generic walk for analyses that care about where a
// variable is mentioned, not about which operator mentions it. FLWOR clauses
// contribute their expressions in clause order, then the return.
//
// A nested FLWOR, a quantified expression and a try/catch bind variables for
// (some of) their children; an analysis that tracks one variable by name
// must handle those three before walking on.
func Children(e Expr) []Expr {
	var out []Expr
	add := func(es ...Expr) {
		for _, ch := range es {
			if ch != nil {
				out = append(out, ch)
			}
		}
	}
	switch n := e.(type) {
	case *CommaExpr:
		add(n.Exprs...)
	case *ObjectConstructor:
		for i := range n.Keys {
			add(n.Keys[i], n.Values[i])
		}
	case *ArrayConstructor:
		add(n.Body)
	case *Unary:
		add(n.Operand)
	case *Arith:
		add(n.L, n.R)
	case *RangeExpr:
		add(n.L, n.R)
	case *ConcatExpr:
		add(n.L, n.R)
	case *Comparison:
		add(n.L, n.R)
	case *Logic:
		add(n.L, n.R)
	case *Predicate:
		add(n.Input, n.Pred)
	case *ObjectLookup:
		add(n.Input, n.Key)
	case *ArrayLookup:
		add(n.Input, n.Index)
	case *ArrayUnbox:
		add(n.Input)
	case *SimpleMap:
		add(n.Input, n.Mapping)
	case *FunctionCall:
		add(n.Args...)
	case *IfExpr:
		add(n.Cond, n.Then, n.Else)
	case *SwitchExpr:
		add(n.Input)
		for _, cs := range n.Cases {
			add(cs.Values...)
			add(cs.Result)
		}
		add(n.Default)
	case *TryCatch:
		add(n.Try, n.Catch)
	case *Quantified:
		for _, b := range n.Bindings {
			add(b.In)
		}
		add(n.Satisfies)
	case *InstanceOf:
		add(n.Input)
	case *TreatAs:
		add(n.Input)
	case *CastableAs:
		add(n.Input)
	case *CastAs:
		add(n.Input)
	case *FLWOR:
		for _, cl := range n.Clauses {
			add(ClauseExprs(cl)...)
		}
		add(n.Return)
	}
	return out
}

// ClauseExprs returns the expressions one FLWOR clause evaluates, nil
// entries dropped (a group key naming an existing variable has none).
func ClauseExprs(cl Clause) []Expr {
	var out []Expr
	switch n := cl.(type) {
	case *ForClause:
		out = append(out, n.In)
	case *LetClause:
		out = append(out, n.Value)
	case *WhereClause:
		out = append(out, n.Cond)
	case *GroupByClause:
		for _, spec := range n.Specs {
			if spec.Expr != nil {
				out = append(out, spec.Expr)
			}
		}
	case *OrderByClause:
		for _, spec := range n.Specs {
			if spec.Expr != nil {
				out = append(out, spec.Expr)
			}
		}
	}
	return out
}
