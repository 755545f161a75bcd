// Package compiler performs the static phase of query compilation: it
// builds the chained static contexts of §5.3 of the paper, verifies that
// every variable reference is in scope and every function call resolves
// with a legal arity, and computes the group-by usage analysis that powers
// the paper's §4.7 optimizations (COUNT() pushdown for count-only
// non-grouping variables, dropped columns for unused ones).
//
// After checking, the annotation phase (modes.go) assigns every expression
// one of four execution modes — Local, RDD, DataFrame or Vector — the
// single static decision the runtime backends hang off. It also detects
// equi-joins (join.go), cluster-bound let clauses, aggregate pushdown
// opportunities, and — when Options.Vectorize is on — FLWOR pipelines
// eligible for the columnar local backend (vector.go). Explain (explain.go)
// renders the annotated plan for `rumble --explain` and GET /explain.
package compiler

import (
	"fmt"

	"rumble/internal/ast"
	"rumble/internal/functions"
	"rumble/internal/lexer"
)

// Error is a static error with source position.
type Error struct {
	Pos lexer.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("static error at %s: %s", e.Pos, e.Msg) }

func errf(pos lexer.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// VarUsage classifies how a non-grouping variable is consumed downstream of
// a group-by clause.
type VarUsage int

// Usage classes, in decreasing order of cost: materialized as a sequence,
// consumed only through count(), or not consumed at all.
const (
	UsageMaterialize VarUsage = iota
	UsageCountOnly
	UsageUnused
)

// CountMarkerSuffix is appended to a variable name to form the synthetic
// variable that carries a pre-aggregated count. "#" cannot appear in user
// variable names, so the namespace is private to the compiler.
const CountMarkerSuffix = "#count"

// GroupPlan records, for one group-by clause, the in-scope variables before
// the clause and the usage class of every non-grouping variable.
type GroupPlan struct {
	// InScope lists the FLWOR variables bound before the clause, in
	// binding order, keys included.
	InScope []string
	// Usage maps every non-grouping in-scope variable to its usage class.
	Usage map[string]VarUsage
}

// RDDLetPlan records a leading let clause whose value the annotation phase
// proved cluster-resident: the runtime binds the variable to the value's
// RDD once per FLWOR evaluation instead of materializing it per tuple, and
// references to the variable are annotated ModeRDD (enabling aggregate
// pushdown and DataFrame heads over the binding).
type RDDLetPlan struct {
	// Uses counts downstream references to the variable (clauses after
	// the let plus the return expression).
	Uses int
	// Cache wraps the bound RDD in a spark-level cache because the
	// variable is consumed more than once: the pipeline computes once and
	// every further consumer replays it from memory.
	Cache bool
}

// Info is the static analysis result consumed by the runtime compiler.
type Info struct {
	// GroupPlans is keyed by group-by clause node.
	GroupPlans map[*ast.GroupByClause]*GroupPlan
	// Modes records the execution mode annotation of every expression
	// node, assigned bottom-up by the annotation phase.
	Modes map[ast.Expr]Mode
	// Pushdown marks aggregate calls (count, sum, ...) whose argument is
	// cluster-resident, so the aggregation runs as a cluster action and
	// only the scalar result travels back.
	Pushdown map[*ast.FunctionCall]bool
	// Joins records, per FLWOR whose leading clauses form a statically
	// detected equi-join, the plan replacing its nested-loop evaluation.
	Joins map[*ast.FLWOR]*JoinPlan
	// RDDLets marks leading let clauses whose variables bind to RDDs.
	RDDLets map[*ast.LetClause]*RDDLetPlan
	// VectorPlans marks FLWORs annotated ModeVector: pipelines the
	// columnar local backend executes batch-at-a-time.
	VectorPlans map[*ast.FLWOR]*VectorPlan
	// VectorAggs marks aggregate calls (count/sum/avg/min/max) whose
	// single argument is a vector-eligible non-grouped FLWOR: the whole
	// aggregation folds inside the columnar backend as a grand (no
	// group-by) aggregate with mergeable accumulators.
	VectorAggs map[*ast.FunctionCall]bool
	// VectorCountZero maps a "count(F) eq 0" comparison to its inner count
	// call: the emptiness test folds as an early-exit vector grand
	// aggregate (like empty(F)) instead of counting the whole scan.
	VectorCountZero map[*ast.Comparison]*ast.FunctionCall
	// ScanPlans records, per json-file/collection call heading a FLWOR
	// that never consumes its variable whole, the column projection the
	// scan's decoders apply — in every execution mode.
	ScanPlans map[*ast.FunctionCall]*ScanPlan
	// VectorWorkers is the executor-pool size morsel-driven vector
	// execution will use; Explain renders it next to the mode
	// ("[Vector x4]") when greater than one.
	VectorWorkers int

	// udfs holds the module's declared functions, which shadow the
	// builtins CompileVector admits.
	udfs map[string][2]int
	// kernels keeps every successful CompileVector.
	kernels map[vectorTail]*VectorKernels
}

// isUDF reports whether name is a function the module declares.
func (i *Info) isUDF(name string) bool {
	_, ok := i.udfs[name]
	return ok
}

// ModeOf returns the annotated execution mode of e. Unannotated nodes (and
// nil) are ModeLocal, the degradation default.
func (i *Info) ModeOf(e ast.Expr) Mode { return i.Modes[e] }

// pipeline returns f's clauses with the leading cluster-bound lets removed,
// the way the runtime hoists them before building the tuple pipeline.
func (i *Info) pipeline(f *ast.FLWOR) []ast.Clause {
	clauses := f.Clauses
	for len(clauses) > 0 {
		lc, ok := clauses[0].(*ast.LetClause)
		if !ok || i.RDDLets[lc] == nil {
			break
		}
		clauses = clauses[1:]
	}
	return clauses
}

// Options configures the static analysis.
type Options struct {
	// Cluster reports whether a cluster context is available to the
	// runtime. Without it every expression is annotated ModeLocal.
	Cluster bool
	// NoJoin disables equi-join detection, forcing nested-loop evaluation
	// of nested for clauses; only tests set it, to compare the two.
	NoJoin bool
	// Vectorize enables the columnar local backend: eligible FLWOR
	// pipelines (scan → filter → project → group/aggregate) are annotated
	// ModeVector instead of Local or DataFrame.
	Vectorize bool
	// Executors is the engine's executor-pool size; vector plans execute
	// morsel-driven on that many workers and Explain renders the count.
	Executors int
}

// specialFunctions are implemented by the runtime rather than the local
// library: data sources and the aggregations with RDD pushdown.
var specialFunctions = map[string][2]int{
	"json-file":   {1, 2},
	"parallelize": {1, 2},
	"collection":  {1, 1},
}

// scope is the chained static context: each frame adds variables.
type scope struct {
	parent *scope
	vars   map[string]bool
}

func (s *scope) child() *scope {
	return &scope{parent: s, vars: map[string]bool{}}
}

func (s *scope) declare(name string) { s.vars[name] = true }

func (s *scope) lookup(name string) bool {
	for c := s; c != nil; c = c.parent {
		if c.vars[name] {
			return true
		}
	}
	return false
}

type checker struct {
	info      *Info
	functions map[string][2]int // name -> [min,max] args (max -1 variadic)
	cluster   bool
	noJoin    bool
	vectorize bool
	modeEnv   *modeScope // variable→mode bindings of the annotation phase
	// folds maps a FLWOR that is the single argument of an aggregate call
	// to the aggregate's name: its vector compile ends in that fold.
	folds map[*ast.FLWOR]string
}

// Analyze checks the module statically and returns the analysis info. It
// also rewrites count($v) calls over count-only grouped variables into
// references to the synthetic pre-aggregated variable, then runs the
// execution-mode annotation phase over the rewritten tree.
func Analyze(m *ast.Module, opts Options) (*Info, error) {
	c := &checker{
		info: &Info{
			GroupPlans:      map[*ast.GroupByClause]*GroupPlan{},
			Modes:           map[ast.Expr]Mode{},
			Pushdown:        map[*ast.FunctionCall]bool{},
			Joins:           map[*ast.FLWOR]*JoinPlan{},
			RDDLets:         map[*ast.LetClause]*RDDLetPlan{},
			VectorPlans:     map[*ast.FLWOR]*VectorPlan{},
			VectorAggs:      map[*ast.FunctionCall]bool{},
			VectorCountZero: map[*ast.Comparison]*ast.FunctionCall{},
			ScanPlans:       map[*ast.FunctionCall]*ScanPlan{},
			VectorWorkers:   opts.Executors,
		},
		functions: map[string][2]int{},
		cluster:   opts.Cluster,
		noJoin:    opts.NoJoin,
		vectorize: opts.Vectorize,
	}
	c.info.udfs = c.functions
	if opts.Vectorize {
		c.folds = map[*ast.FLWOR]string{}
	}
	for _, fd := range m.Functions {
		if _, dup := c.functions[fd.Name]; dup {
			return nil, errf(fd.Pos, "function %s declared twice", fd.Name)
		}
		c.functions[fd.Name] = [2]int{len(fd.Params), len(fd.Params)}
	}
	globals := &scope{vars: map[string]bool{}}
	for _, vd := range m.Vars {
		if err := c.checkExpr(vd.Init, globals); err != nil {
			return nil, err
		}
		globals.declare(vd.Name)
	}
	for _, fd := range m.Functions {
		fnScope := globals.child()
		for _, p := range fd.Params {
			fnScope.declare(p)
		}
		if err := c.checkExpr(fd.Body, fnScope); err != nil {
			return nil, err
		}
	}
	if err := c.checkExpr(m.Body, globals); err != nil {
		return nil, err
	}
	c.annotateModule(m)
	return c.info, nil
}

func (c *checker) checkExpr(e ast.Expr, sc *scope) error {
	switch n := e.(type) {
	case nil:
		return nil
	case *ast.Literal, *ast.ContextItem:
		return nil
	case *ast.VarRef:
		if !sc.lookup(n.Name) {
			return errf(n.Pos(), "variable $%s is not in scope", n.Name)
		}
		return nil
	case *ast.CommaExpr:
		for _, ch := range n.Exprs {
			if err := c.checkExpr(ch, sc); err != nil {
				return err
			}
		}
		return nil
	case *ast.ObjectConstructor:
		for i := range n.Keys {
			if err := c.checkExpr(n.Keys[i], sc); err != nil {
				return err
			}
			if err := c.checkExpr(n.Values[i], sc); err != nil {
				return err
			}
		}
		return nil
	case *ast.ArrayConstructor:
		return c.checkExpr(n.Body, sc)
	case *ast.Unary:
		return c.checkExpr(n.Operand, sc)
	case *ast.Arith:
		return c.checkTwo(n.L, n.R, sc)
	case *ast.RangeExpr:
		return c.checkTwo(n.L, n.R, sc)
	case *ast.ConcatExpr:
		return c.checkTwo(n.L, n.R, sc)
	case *ast.Comparison:
		return c.checkTwo(n.L, n.R, sc)
	case *ast.Logic:
		return c.checkTwo(n.L, n.R, sc)
	case *ast.Predicate:
		if err := c.checkExpr(n.Input, sc); err != nil {
			return err
		}
		return c.checkExpr(n.Pred, sc)
	case *ast.SimpleMap:
		if err := c.checkExpr(n.Input, sc); err != nil {
			return err
		}
		return c.checkExpr(n.Mapping, sc)
	case *ast.ObjectLookup:
		if err := c.checkExpr(n.Input, sc); err != nil {
			return err
		}
		return c.checkExpr(n.Key, sc)
	case *ast.ArrayLookup:
		if err := c.checkExpr(n.Input, sc); err != nil {
			return err
		}
		return c.checkExpr(n.Index, sc)
	case *ast.ArrayUnbox:
		return c.checkExpr(n.Input, sc)
	case *ast.FunctionCall:
		if err := c.checkCallTarget(n); err != nil {
			return err
		}
		for _, a := range n.Args {
			if err := c.checkExpr(a, sc); err != nil {
				return err
			}
		}
		return nil
	case *ast.IfExpr:
		if err := c.checkExpr(n.Cond, sc); err != nil {
			return err
		}
		if err := c.checkExpr(n.Then, sc); err != nil {
			return err
		}
		return c.checkExpr(n.Else, sc)
	case *ast.SwitchExpr:
		if err := c.checkExpr(n.Input, sc); err != nil {
			return err
		}
		for _, cs := range n.Cases {
			for _, v := range cs.Values {
				if err := c.checkExpr(v, sc); err != nil {
					return err
				}
			}
			if err := c.checkExpr(cs.Result, sc); err != nil {
				return err
			}
		}
		return c.checkExpr(n.Default, sc)
	case *ast.TryCatch:
		if err := c.checkExpr(n.Try, sc); err != nil {
			return err
		}
		catchScope := sc.child()
		catchScope.declare("err:description")
		return c.checkExpr(n.Catch, catchScope)
	case *ast.Quantified:
		qs := sc.child()
		for _, b := range n.Bindings {
			if err := c.checkExpr(b.In, qs); err != nil {
				return err
			}
			qs.declare(b.Var)
		}
		return c.checkExpr(n.Satisfies, qs)
	case *ast.InstanceOf:
		return c.checkExpr(n.Input, sc)
	case *ast.TreatAs:
		return c.checkExpr(n.Input, sc)
	case *ast.CastableAs:
		return c.checkExpr(n.Input, sc)
	case *ast.CastAs:
		return c.checkExpr(n.Input, sc)
	case *ast.FLWOR:
		return c.checkFLWOR(n, sc)
	default:
		return fmt.Errorf("static error: unknown expression node %T", e)
	}
}

func (c *checker) checkTwo(l, r ast.Expr, sc *scope) error {
	if err := c.checkExpr(l, sc); err != nil {
		return err
	}
	return c.checkExpr(r, sc)
}

func (c *checker) checkCallTarget(n *ast.FunctionCall) error {
	if n.Name == "#count-of" {
		// Synthetic call produced by the group-by count rewrite.
		return nil
	}
	if bounds, ok := c.functions[n.Name]; ok {
		if len(n.Args) != bounds[0] {
			return errf(n.Pos(), "function %s expects %d arguments, got %d", n.Name, bounds[0], len(n.Args))
		}
		return nil
	}
	if bounds, ok := specialFunctions[n.Name]; ok {
		if len(n.Args) < bounds[0] || len(n.Args) > bounds[1] {
			return errf(n.Pos(), "function %s expects %d to %d arguments, got %d", n.Name, bounds[0], bounds[1], len(n.Args))
		}
		return nil
	}
	if f, ok := functions.Lookup(n.Name); ok {
		if len(n.Args) < f.MinArgs || (f.MaxArgs >= 0 && len(n.Args) > f.MaxArgs) {
			return errf(n.Pos(), "function %s called with %d arguments", n.Name, len(n.Args))
		}
		return nil
	}
	return errf(n.Pos(), "unknown function %s/%d", n.Name, len(n.Args))
}

// checkFLWOR walks the clause chain with the variable scoping rules of
// JSONiq and builds the group-by plans.
func (c *checker) checkFLWOR(f *ast.FLWOR, outer *scope) error {
	sc := outer.child()
	var bound []string // FLWOR variables in binding order
	declare := func(name string) {
		sc.declare(name)
		for _, b := range bound {
			if b == name {
				return // redeclaration shadows; keep first position
			}
		}
		bound = append(bound, name)
	}
	for ci, cl := range f.Clauses {
		switch n := cl.(type) {
		case *ast.ForClause:
			if err := c.checkExpr(n.In, sc); err != nil {
				return err
			}
			declare(n.Var)
			if n.PosVar != "" {
				if n.PosVar == n.Var {
					return errf(n.Pos(), "positional variable $%s collides with the for variable", n.PosVar)
				}
				declare(n.PosVar)
			}
		case *ast.LetClause:
			if err := c.checkExpr(n.Value, sc); err != nil {
				return err
			}
			declare(n.Var)
		case *ast.WhereClause:
			if err := c.checkExpr(n.Cond, sc); err != nil {
				return err
			}
		case *ast.CountClause:
			declare(n.Var)
		case *ast.OrderByClause:
			for _, spec := range n.Specs {
				if err := c.checkExpr(spec.Expr, sc); err != nil {
					return err
				}
			}
		case *ast.GroupByClause:
			plan := &GroupPlan{Usage: map[string]VarUsage{}}
			keySet := map[string]bool{}
			for _, spec := range n.Specs {
				if spec.Expr != nil {
					if err := c.checkExpr(spec.Expr, sc); err != nil {
						return err
					}
					declare(spec.Var)
				} else if !sc.lookup(spec.Var) {
					return errf(n.Pos(), "group by: variable $%s is not in scope", spec.Var)
				}
				keySet[spec.Var] = true
			}
			plan.InScope = append(plan.InScope, bound...)
			// Usage analysis over everything downstream of this clause.
			uses := map[string]*useInfo{}
			for _, name := range bound {
				if !keySet[name] {
					uses[name] = &useInfo{}
				}
			}
			for _, rest := range f.Clauses[ci+1:] {
				collectClauseUses(rest, uses)
			}
			collectUses(f.Return, uses)
			for name, u := range uses {
				switch {
				case u.plainUses == 0 && u.countCalls == nil:
					plan.Usage[name] = UsageUnused
				case u.plainUses == 0 && len(u.countCalls) > 0:
					plan.Usage[name] = UsageCountOnly
					for _, call := range u.countCalls {
						// Rewrite count($v) into $v#count, pre-aggregated
						// by the group-by clause itself.
						rewriteToCountVar(call, name)
					}
					declare(name + CountMarkerSuffix)
				default:
					plan.Usage[name] = UsageMaterialize
				}
			}
			c.info.GroupPlans[n] = plan
		default:
			return fmt.Errorf("static error: unknown clause node %T", cl)
		}
	}
	return c.checkExpr(f.Return, sc)
}

// useInfo accumulates how a variable is referenced downstream.
type useInfo struct {
	plainUses  int
	countCalls []*ast.FunctionCall
}

// countVarUses counts downstream references to name across the given
// clauses and the return expression; plain references and count($v) calls
// each count as one consumption. Shadowed references may overcount, which
// at worst caches an RDD that is consumed once.
func countVarUses(name string, clauses []ast.Clause, ret ast.Expr) int {
	uses := map[string]*useInfo{name: {}}
	for _, cl := range clauses {
		collectClauseUses(cl, uses)
	}
	collectUses(ret, uses)
	u := uses[name]
	return u.plainUses + len(u.countCalls)
}

// collectClauseUses gathers variable references in one clause.
func collectClauseUses(cl ast.Clause, uses map[string]*useInfo) {
	switch n := cl.(type) {
	case *ast.ForClause:
		collectUses(n.In, uses)
	case *ast.LetClause:
		collectUses(n.Value, uses)
	case *ast.WhereClause:
		collectUses(n.Cond, uses)
	case *ast.GroupByClause:
		for _, spec := range n.Specs {
			if spec.Expr != nil {
				collectUses(spec.Expr, uses)
			} else if u, ok := uses[spec.Var]; ok {
				// Re-grouping by the variable forces materialization.
				u.plainUses++
			}
		}
	case *ast.OrderByClause:
		for _, spec := range n.Specs {
			collectUses(spec.Expr, uses)
		}
	case *ast.CountClause:
	}
}

// collectUses walks an expression, recording plain references and
// count($v) calls for the tracked variables.
func collectUses(e ast.Expr, uses map[string]*useInfo) {
	switch n := e.(type) {
	case nil:
		return
	case *ast.VarRef:
		if u, ok := uses[n.Name]; ok {
			u.plainUses++
		}
	case *ast.FunctionCall:
		if n.Name == "count" && len(n.Args) == 1 {
			if vr, ok := n.Args[0].(*ast.VarRef); ok {
				if u, tracked := uses[vr.Name]; tracked {
					u.countCalls = append(u.countCalls, n)
					return
				}
			}
		}
		for _, a := range n.Args {
			collectUses(a, uses)
		}
	case *ast.CommaExpr:
		for _, ch := range n.Exprs {
			collectUses(ch, uses)
		}
	case *ast.ObjectConstructor:
		for i := range n.Keys {
			collectUses(n.Keys[i], uses)
			collectUses(n.Values[i], uses)
		}
	case *ast.ArrayConstructor:
		collectUses(n.Body, uses)
	case *ast.Unary:
		collectUses(n.Operand, uses)
	case *ast.Arith:
		collectUses(n.L, uses)
		collectUses(n.R, uses)
	case *ast.RangeExpr:
		collectUses(n.L, uses)
		collectUses(n.R, uses)
	case *ast.ConcatExpr:
		collectUses(n.L, uses)
		collectUses(n.R, uses)
	case *ast.Comparison:
		collectUses(n.L, uses)
		collectUses(n.R, uses)
	case *ast.Logic:
		collectUses(n.L, uses)
		collectUses(n.R, uses)
	case *ast.Predicate:
		collectUses(n.Input, uses)
		collectUses(n.Pred, uses)
	case *ast.SimpleMap:
		collectUses(n.Input, uses)
		collectUses(n.Mapping, uses)
	case *ast.ObjectLookup:
		collectUses(n.Input, uses)
		collectUses(n.Key, uses)
	case *ast.ArrayLookup:
		collectUses(n.Input, uses)
		collectUses(n.Index, uses)
	case *ast.ArrayUnbox:
		collectUses(n.Input, uses)
	case *ast.IfExpr:
		collectUses(n.Cond, uses)
		collectUses(n.Then, uses)
		collectUses(n.Else, uses)
	case *ast.SwitchExpr:
		collectUses(n.Input, uses)
		for _, cs := range n.Cases {
			for _, v := range cs.Values {
				collectUses(v, uses)
			}
			collectUses(cs.Result, uses)
		}
		collectUses(n.Default, uses)
	case *ast.TryCatch:
		collectUses(n.Try, uses)
		collectUses(n.Catch, uses)
	case *ast.Quantified:
		for _, b := range n.Bindings {
			collectUses(b.In, uses)
		}
		collectUses(n.Satisfies, uses)
	case *ast.InstanceOf:
		collectUses(n.Input, uses)
	case *ast.TreatAs:
		collectUses(n.Input, uses)
	case *ast.CastableAs:
		collectUses(n.Input, uses)
	case *ast.CastAs:
		collectUses(n.Input, uses)
	case *ast.FLWOR:
		for _, cl := range n.Clauses {
			collectClauseUses(cl, uses)
		}
		collectUses(n.Return, uses)
	}
}

// rewriteToCountVar mutates a count($v) call node in place into a reference
// to the synthetic $v#count variable. The node stays a FunctionCall
// structurally; the runtime compiler recognizes the rewritten shape.
func rewriteToCountVar(call *ast.FunctionCall, varName string) {
	call.Name = "#count-of"
	call.Args = []ast.Expr{ast.NewVarRef(call.Pos(), varName+CountMarkerSuffix)}
}
