package compiler

import (
	"fmt"
	"strings"

	"rumble/internal/ast"
	"rumble/internal/item"
)

// Explain renders the analyzed module as a mode-annotated physical plan
// tree: one line per expression node, indented by depth, each carrying the
// execution mode the annotation phase assigned ([Local], [RDD] or
// [DataFrame]). FLWOR clause and object-field lines structure the tree but
// carry no mode of their own.
func Explain(m *ast.Module, info *Info) string {
	return ExplainAnnotated(m, info, nil)
}

// ExplainAnnotated renders the same plan tree with an optional annotation
// per operator line: note is called with the operator's registration key —
// the AST node, clause pointer or join plan the runtime keyed its profile
// operator by — and a non-empty return is appended to the line. A nil note
// (or one that always returns "") reproduces Explain byte for byte, which
// pins the explain goldens.
func ExplainAnnotated(m *ast.Module, info *Info, note func(key any) string) string {
	p := &explainPrinter{info: info, note: note}
	for _, vd := range m.Vars {
		p.line(0, "declare variable $"+vd.Name, nil)
		p.expr(1, ":= ", vd.Init)
	}
	for _, fd := range m.Functions {
		params := make([]string, len(fd.Params))
		for i, prm := range fd.Params {
			params[i] = "$" + prm
		}
		p.line(0, fmt.Sprintf("declare function %s(%s)", fd.Name, strings.Join(params, ", ")), nil)
		p.expr(1, "", fd.Body)
	}
	p.expr(0, "", m.Body)
	return p.b.String()
}

type explainPrinter struct {
	b    strings.Builder
	info *Info
	note func(key any) string
}

// tag appends the annotation for key (if any) to a label that is not
// itself an expression line — clause headers, join nodes, Sort/TopK.
func (p *explainPrinter) tag(label string, key any) string {
	if p.note == nil || key == nil {
		return label
	}
	if s := p.note(key); s != "" {
		return label + "  " + s
	}
	return label
}

// line emits one indented line; when e is non-nil its mode is appended.
// Vector nodes carry the morsel worker-pool size ("[Vector x4]") when the
// executor pool holds more than one slot.
func (p *explainPrinter) line(depth int, label string, e ast.Expr) {
	for i := 0; i < depth; i++ {
		p.b.WriteString("  ")
	}
	p.b.WriteString(label)
	if e != nil {
		m := p.info.ModeOf(e)
		p.b.WriteString(" [")
		p.b.WriteString(m.String())
		if m == ModeVector && p.info.VectorWorkers > 1 {
			fmt.Fprintf(&p.b, " x%d", p.info.VectorWorkers)
		}
		p.b.WriteString("]")
	}
	if p.note != nil && e != nil {
		if s := p.note(e); s != "" {
			p.b.WriteString("  ")
			p.b.WriteString(s)
		}
	}
	p.b.WriteString("\n")
}

// expr renders the node label (prefixed by the structural role) and
// recurses into children one level deeper.
func (p *explainPrinter) expr(depth int, prefix string, e ast.Expr) {
	switch n := e.(type) {
	case nil:
		p.line(depth, prefix+"()", nil)
	case *ast.Literal:
		p.line(depth, prefix+"literal "+string(n.Value.AppendJSON(nil)), n)
	case *ast.VarRef:
		p.line(depth, prefix+"$"+n.Name, n)
	case *ast.ContextItem:
		p.line(depth, prefix+"$$", n)
	case *ast.CommaExpr:
		p.line(depth, prefix+"sequence", n)
		for _, ch := range n.Exprs {
			p.expr(depth+1, "", ch)
		}
	case *ast.ObjectConstructor:
		p.line(depth, prefix+"object", n)
		for i := range n.Keys {
			if lit, ok := n.Keys[i].(*ast.Literal); ok {
				p.expr(depth+1, string(lit.Value.AppendJSON(nil))+": ", n.Values[i])
				continue
			}
			p.line(depth+1, "dynamic field", nil)
			p.expr(depth+2, "key: ", n.Keys[i])
			p.expr(depth+2, "value: ", n.Values[i])
		}
	case *ast.ArrayConstructor:
		p.line(depth, prefix+"array", n)
		if n.Body != nil {
			p.expr(depth+1, "", n.Body)
		}
	case *ast.Unary:
		op := "+"
		if n.Minus {
			op = "-"
		}
		p.line(depth, prefix+"unary "+op, n)
		p.expr(depth+1, "", n.Operand)
	case *ast.Arith:
		p.line(depth, prefix+"arith "+n.Op.String(), n)
		p.expr(depth+1, "", n.L)
		p.expr(depth+1, "", n.R)
	case *ast.RangeExpr:
		p.line(depth, prefix+"range", n)
		p.expr(depth+1, "", n.L)
		p.expr(depth+1, "", n.R)
	case *ast.ConcatExpr:
		p.line(depth, prefix+"concat", n)
		p.expr(depth+1, "", n.L)
		p.expr(depth+1, "", n.R)
	case *ast.Comparison:
		p.line(depth, prefix+"compare "+string(n.Op), n)
		p.expr(depth+1, "", n.L)
		p.expr(depth+1, "", n.R)
	case *ast.Logic:
		op := "or"
		if n.IsAnd {
			op = "and"
		}
		p.line(depth, prefix+op, n)
		p.expr(depth+1, "", n.L)
		p.expr(depth+1, "", n.R)
	case *ast.Predicate:
		p.line(depth, prefix+"predicate", n)
		p.expr(depth+1, "", n.Input)
		p.expr(depth+1, "filter: ", n.Pred)
	case *ast.SimpleMap:
		p.line(depth, prefix+"simple-map", n)
		p.expr(depth+1, "", n.Input)
		p.expr(depth+1, "map: ", n.Mapping)
	case *ast.ObjectLookup:
		if lit, ok := n.Key.(*ast.Literal); ok {
			p.line(depth, prefix+"lookup ."+strings.Trim(string(lit.Value.AppendJSON(nil)), `"`), n)
			p.expr(depth+1, "", n.Input)
			return
		}
		p.line(depth, prefix+"lookup (dynamic)", n)
		p.expr(depth+1, "", n.Input)
		p.expr(depth+1, "key: ", n.Key)
	case *ast.ArrayLookup:
		p.line(depth, prefix+"array-lookup", n)
		p.expr(depth+1, "", n.Input)
		p.expr(depth+1, "index: ", n.Index)
	case *ast.ArrayUnbox:
		p.line(depth, prefix+"unbox", n)
		p.expr(depth+1, "", n.Input)
	case *ast.FunctionCall:
		label := fmt.Sprintf("%scall %s/%d", prefix, n.Name, len(n.Args))
		if p.info.Pushdown[n] {
			label += " (cluster pushdown)"
		}
		p.line(depth, label, n)
		for _, a := range n.Args {
			p.expr(depth+1, "", a)
		}
	case *ast.IfExpr:
		p.line(depth, prefix+"if", n)
		p.expr(depth+1, "cond: ", n.Cond)
		p.expr(depth+1, "then: ", n.Then)
		p.expr(depth+1, "else: ", n.Else)
	case *ast.SwitchExpr:
		p.line(depth, prefix+"switch", n)
		p.expr(depth+1, "input: ", n.Input)
		for _, cs := range n.Cases {
			for _, v := range cs.Values {
				p.expr(depth+1, "case: ", v)
			}
			p.expr(depth+1, "result: ", cs.Result)
		}
		p.expr(depth+1, "default: ", n.Default)
	case *ast.TryCatch:
		p.line(depth, prefix+"try-catch", n)
		p.expr(depth+1, "try: ", n.Try)
		p.expr(depth+1, "catch: ", n.Catch)
	case *ast.Quantified:
		kind := "some"
		if n.Every {
			kind = "every"
		}
		p.line(depth, prefix+kind, n)
		for _, b := range n.Bindings {
			p.expr(depth+1, "$"+b.Var+" in ", b.In)
		}
		p.expr(depth+1, "satisfies: ", n.Satisfies)
	case *ast.InstanceOf:
		p.line(depth, prefix+"instance of "+fmtSeqType(n.Type), n)
		p.expr(depth+1, "", n.Input)
	case *ast.TreatAs:
		p.line(depth, prefix+"treat as "+fmtSeqType(n.Type), n)
		p.expr(depth+1, "", n.Input)
	case *ast.CastableAs:
		p.line(depth, prefix+"castable as "+n.TypeName, n)
		p.expr(depth+1, "", n.Input)
	case *ast.CastAs:
		p.line(depth, prefix+"cast as "+n.TypeName, n)
		p.expr(depth+1, "", n.Input)
	case *ast.FLWOR:
		p.line(depth, prefix+"flwor", n)
		clauses := n.Clauses
		if jp := p.info.Joins[n]; jp != nil {
			p.join(depth+1, jp)
			clauses = clauses[3:] // for, for, where consumed by the join
		}
		vp := p.info.VectorPlans[n]
		for ci := 0; ci < len(clauses); ci++ {
			if ob, ok := clauses[ci].(*ast.OrderByClause); ok && vp != nil && vp.OrderBy == ob {
				// A vectorized order-by runs as a columnar sort operator; a
				// fused top-k absorbs the trailing count + where bound.
				label := "Sort"
				if vp.TopK > 0 {
					label = fmt.Sprintf("TopK(%d)", vp.TopK)
					ci += 2
				}
				p.line(depth+1, p.tag(label, ob), nil)
				p.orderKeys(depth+2, ob)
				continue
			}
			p.clause(depth+1, clauses[ci])
			if fc, ok := clauses[ci].(*ast.ForClause); ok {
				if ci == 0 && vp != nil && len(vp.Prune) > 0 {
					p.line(depth+2, "zone-map prune: "+fmtPrune(vp.Prune), nil)
				}
				if cols := p.scanColumns(fc, ci == 0, vp); len(cols) > 0 {
					p.line(depth+2, "columns: "+strings.Join(cols, ", "), nil)
				}
			}
		}
		p.line(depth+1, "return", nil)
		p.expr(depth+2, "", n.Return)
	default:
		p.line(depth, fmt.Sprintf("%s<%T>", prefix, e), nil)
	}
}

// scanColumns returns the column projection to render under a for clause:
// the scan plan of a storage-backed head scan (any mode), else the vector
// plan's projection over its head (in-memory and parallelize sources).
func (p *explainPrinter) scanColumns(fc *ast.ForClause, first bool, vp *VectorPlan) []string {
	if call, ok := fc.In.(*ast.FunctionCall); ok {
		if sp := p.info.ScanPlans[call]; sp != nil {
			return sp.Columns
		}
	}
	if first && vp != nil && !vp.AllColumns {
		return vp.Columns
	}
	return nil
}

// fmtPrune renders the pushed-down zone-map predicates of a vector scan:
// the conjuncts a segment-backed scan tests against segment zone maps
// before touching any row.
func fmtPrune(preds []PrunePred) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		lit := p.Lit.String()
		if p.Lit.Kind() == item.KindString {
			lit = fmt.Sprintf("%q", string(p.Lit.(item.Str)))
		}
		parts[i] = fmt.Sprintf("%s %s %s", p.Field, p.Op, lit)
	}
	return strings.Join(parts, " and ")
}

// join renders a statically detected equi-join node: the strategy, both
// inputs, the key expression pairs, the probe filter and the residual
// filter.
func (p *explainPrinter) join(depth int, jp *JoinPlan) {
	label := fmt.Sprintf("Join[%s] for $%s, for $%s", jp.Strategy, jp.Left.Var, jp.Right.Var)
	if jp.Strategy == JoinBroadcast {
		side := "right"
		if jp.BuildLeft {
			side = "left"
		}
		label += " (build: " + side + ")"
	}
	p.line(depth, p.tag(label, jp), nil)
	p.expr(depth+1, "left in: ", jp.Left.In)
	p.expr(depth+1, "right in: ", jp.Right.In)
	for i := range jp.LeftKeys {
		p.line(depth+1, fmt.Sprintf("key %d", i+1), nil)
		p.expr(depth+2, "left: ", jp.LeftKeys[i])
		p.expr(depth+2, "right: ", jp.RightKeys[i])
	}
	for _, cond := range jp.ProbeFilter {
		p.expr(depth+1, "probe where: ", cond)
	}
	for _, res := range jp.Residual {
		p.expr(depth+1, "residual where: ", res)
	}
}

// clause renders one FLWOR clause header plus its key expressions.
func (p *explainPrinter) clause(depth int, cl ast.Clause) {
	switch n := cl.(type) {
	case *ast.ForClause:
		label := "for $" + n.Var
		if n.PosVar != "" {
			label += " at $" + n.PosVar
		}
		if n.AllowEmpty {
			label += " allowing empty"
		}
		p.line(depth, p.tag(label, n), nil)
		p.expr(depth+1, "in: ", n.In)
	case *ast.LetClause:
		label := "let $" + n.Var
		if lp := p.info.RDDLets[n]; lp != nil {
			label += " [cluster-bound"
			if lp.Cache {
				label += ", cached"
			}
			label += "]"
		}
		p.line(depth, p.tag(label, n), nil)
		p.expr(depth+1, ":= ", n.Value)
	case *ast.WhereClause:
		p.line(depth, p.tag("where", n), nil)
		p.expr(depth+1, "", n.Cond)
	case *ast.GroupByClause:
		p.line(depth, p.tag("group by", n), nil)
		for _, spec := range n.Specs {
			if spec.Expr == nil {
				p.line(depth+1, "key $"+spec.Var, nil)
				continue
			}
			p.expr(depth+1, "$"+spec.Var+" := ", spec.Expr)
		}
	case *ast.OrderByClause:
		label := "order by"
		if k, ok := p.info.TopK[n]; ok {
			label = fmt.Sprintf("order by (top %d)", k)
		}
		p.line(depth, p.tag(label, n), nil)
		p.orderKeys(depth+1, n)
	case *ast.CountClause:
		p.line(depth, p.tag("count $"+n.Var, n), nil)
	}
}

// orderKeys renders the key lines of an order-by clause (or of the Sort /
// TopK operator it vectorizes into).
func (p *explainPrinter) orderKeys(depth int, n *ast.OrderByClause) {
	for _, spec := range n.Specs {
		role := "key"
		if spec.Descending {
			role += " descending"
		}
		if spec.EmptyGreatest {
			role += " empty greatest"
		}
		p.expr(depth, role+": ", spec.Expr)
	}
}

func fmtSeqType(st ast.SequenceType) string {
	if st.EmptySequence {
		return "empty-sequence()"
	}
	return st.ItemType + st.Occurrence
}
