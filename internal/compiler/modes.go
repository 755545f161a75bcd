package compiler

import (
	"rumble/internal/ast"
	"rumble/internal/functions"
)

// Mode is the physical execution mode the static compiler assigns to every
// expression node, the §5–§6 design point of the paper: the decision whether
// an expression is materialized locally, runs as an RDD pipeline, or runs
// natively on DataFrames is made once at compile time, never probed at run
// time.
type Mode int

// The execution modes. Local is the zero value: every expression degrades
// to local materialized execution unless the annotation rules below prove a
// better backend is available. The first three are the paper's modes;
// Vector is the columnar local backend selected when Options.Vectorize is
// on and the FLWOR's vector compile (Info.CompileVector) succeeds.
const (
	// ModeLocal executes by streaming materialized items on the driver.
	ModeLocal Mode = iota
	// ModeRDD executes as an RDD pipeline of items on the cluster.
	ModeRDD
	// ModeDataFrame executes FLWOR tuple streams natively as DataFrames
	// with one column per variable (§4.3).
	ModeDataFrame
	// ModeVector executes FLWOR pipelines locally over typed column
	// batches (scan → filter → project → group/aggregate) instead of
	// tuple-at-a-time interpretation. Selected statically when
	// Options.Vectorize is on and Info.CompileVector succeeds.
	ModeVector
)

// String renders the mode the way Explain prints it.
func (m Mode) String() string {
	switch m {
	case ModeRDD:
		return "RDD"
	case ModeDataFrame:
		return "DataFrame"
	case ModeVector:
		return "Vector"
	default:
		return "Local"
	}
}

// Parallel reports whether the mode executes on the cluster. A DataFrame
// expression also exposes its output as an RDD of items, so both cluster
// modes propagate parallelism to consuming expressions. Vector is a local
// mode: it executes on the driver, batch-at-a-time.
func (m Mode) Parallel() bool { return m == ModeRDD || m == ModeDataFrame }

// IsAggregate reports whether name is a builtin aggregation: a fold of the
// accumulator's kind table (functions.AggregateKind) or the existence test
// exists/empty. Its evaluation pushes down to a cluster action when the
// argument is cluster-resident (§5.5: "aggregating iterators invoke a Spark
// count action on the child RDD"), and folds inside the vector backend
// when the argument is a vector pipeline.
func IsAggregate(name string) bool {
	_, fold := functions.AggregateKind(name)
	return fold || name == "exists" || name == "empty"
}

// dataSourceFunctions seed RDD mode when a cluster is available (§5.7).
var dataSourceFunctions = map[string]bool{
	"json-file": true, "parallelize": true, "collection": true,
}

// modeScope chains variable→mode bindings during the annotation phase, so
// a VarRef inherits the statically known mode of its binding: ModeRDD for
// cluster-bound lets, ModeLocal for everything else. Lookup of an unbound
// name degrades to ModeLocal.
type modeScope struct {
	parent *modeScope
	vars   map[string]Mode
}

func (s *modeScope) child() *modeScope {
	return &modeScope{parent: s, vars: map[string]Mode{}}
}

func (s *modeScope) bind(name string, m Mode) { s.vars[name] = m }

func (s *modeScope) lookup(name string) Mode {
	for c := s; c != nil; c = c.parent {
		if m, ok := c.vars[name]; ok {
			return m
		}
	}
	return ModeLocal
}

// annotateModule assigns execution modes to every expression of the module,
// bottom-up. It runs after scope/arity checking and after the group-by
// count rewrite, so it sees the final shape of the tree.
func (c *checker) annotateModule(m *ast.Module) {
	c.modeEnv = &modeScope{vars: map[string]Mode{}}
	for _, vd := range m.Vars {
		// Global variables are evaluated eagerly on the driver; their
		// initializers may still read cluster data sources.
		c.annotate(vd.Init)
		c.modeEnv.bind(vd.Name, ModeLocal)
	}
	for _, fd := range m.Functions {
		// User-defined function calls materialize their result through the
		// local API, so bodies are annotated independently with their
		// parameters bound local.
		saved := c.modeEnv
		c.modeEnv = saved.child()
		for _, p := range fd.Params {
			c.modeEnv.bind(p, ModeLocal)
		}
		c.annotate(fd.Body)
		c.modeEnv = saved
	}
	c.annotate(m.Body)
}

// annotate computes and records the mode of e, returning it. The rules
// mirror §5.5–§5.7 of the paper:
//
//   - data sources (json-file, parallelize, collection) seed ModeRDD;
//   - path steps, predicates, simple map and distinct-values preserve the
//     parallelism of their input;
//   - a comma expression is an RDD union when every member is parallel;
//   - a conditional is parallel when either branch is;
//   - a FLWOR whose initial clause is a for over a parallel expression
//     (without "allowing empty") runs natively on DataFrames;
//   - aggregates stay local but push the aggregation down to a cluster
//     action when their argument is parallel (recorded in Info.Pushdown);
//   - everything else degrades to ModeLocal.
func (c *checker) annotate(e ast.Expr) Mode {
	if e == nil {
		return ModeLocal
	}
	mode := ModeLocal
	switch n := e.(type) {
	case *ast.Literal, *ast.ContextItem:
		// Local leaves.
	case *ast.VarRef:
		// A variable inherits the mode of its binding: references to
		// cluster-bound lets are RDDs themselves.
		mode = c.modeEnv.lookup(n.Name)
	case *ast.CommaExpr:
		allParallel := len(n.Exprs) > 0
		for _, ch := range n.Exprs {
			if !c.annotate(ch).Parallel() {
				allParallel = false
			}
		}
		if allParallel {
			mode = ModeRDD
		}
	case *ast.ObjectConstructor:
		for i := range n.Keys {
			c.annotate(n.Keys[i])
			c.annotate(n.Values[i])
		}
	case *ast.ArrayConstructor:
		c.annotate(n.Body)
	case *ast.Unary:
		c.annotate(n.Operand)
	case *ast.Arith:
		c.annotate(n.L)
		c.annotate(n.R)
	case *ast.RangeExpr:
		c.annotate(n.L)
		c.annotate(n.R)
	case *ast.ConcatExpr:
		c.annotate(n.L)
		c.annotate(n.R)
	case *ast.Comparison:
		c.annotate(n.L)
		c.annotate(n.R)
		// "count(F) eq 0" over a vector pipeline is an emptiness test: fold
		// it as an early-exit grand aggregate instead of counting the scan.
		if call := c.countZeroCall(n); call != nil {
			c.info.VectorCountZero[n] = call
			mode = ModeVector
		}
	case *ast.Logic:
		c.annotate(n.L)
		c.annotate(n.R)
	case *ast.Predicate:
		in := c.annotate(n.Input)
		c.annotate(n.Pred)
		if in.Parallel() {
			mode = ModeRDD
		}
	case *ast.SimpleMap:
		in := c.annotate(n.Input)
		c.annotate(n.Mapping)
		if in.Parallel() {
			mode = ModeRDD
		}
	case *ast.ObjectLookup:
		in := c.annotate(n.Input)
		c.annotate(n.Key)
		if in.Parallel() {
			mode = ModeRDD
		}
	case *ast.ArrayLookup:
		in := c.annotate(n.Input)
		c.annotate(n.Index)
		if in.Parallel() {
			mode = ModeRDD
		}
	case *ast.ArrayUnbox:
		if c.annotate(n.Input).Parallel() {
			mode = ModeRDD
		}
	case *ast.FunctionCall:
		mode = c.annotateCall(n)
	case *ast.IfExpr:
		c.annotate(n.Cond)
		thenMode := c.annotate(n.Then)
		elseMode := c.annotate(n.Else)
		// Either branch may be chosen at run time; when at least one is
		// parallel the conditional executes as an RDD, parallelizing the
		// other branch's local result if needed.
		if thenMode.Parallel() || elseMode.Parallel() {
			mode = ModeRDD
		}
	case *ast.SwitchExpr:
		c.annotate(n.Input)
		for _, cs := range n.Cases {
			for _, v := range cs.Values {
				c.annotate(v)
			}
			c.annotate(cs.Result)
		}
		c.annotate(n.Default)
	case *ast.TryCatch:
		// Snapshot semantics force materialization of the try branch.
		c.annotate(n.Try)
		saved := c.modeEnv
		c.modeEnv = saved.child()
		c.modeEnv.bind("err:description", ModeLocal)
		c.annotate(n.Catch)
		c.modeEnv = saved
	case *ast.Quantified:
		saved := c.modeEnv
		c.modeEnv = saved.child()
		for _, b := range n.Bindings {
			c.annotate(b.In)
			c.modeEnv.bind(b.Var, ModeLocal)
		}
		c.annotate(n.Satisfies)
		c.modeEnv = saved
	case *ast.InstanceOf:
		c.annotate(n.Input)
	case *ast.TreatAs:
		c.annotate(n.Input)
	case *ast.CastableAs:
		c.annotate(n.Input)
	case *ast.CastAs:
		c.annotate(n.Input)
	case *ast.FLWOR:
		mode = c.annotateFLWOR(n)
	}
	c.info.Modes[e] = mode
	return mode
}

// annotateCall assigns the mode of a function call. User-declared functions
// shadow builtins, matching the runtime's dispatch order.
func (c *checker) annotateCall(n *ast.FunctionCall) Mode {
	_, isUDF := c.functions[n.Name]
	if c.vectorize && len(n.Args) == 1 && !isUDF && IsAggregate(n.Name) {
		if f, ok := n.Args[0].(*ast.FLWOR); ok {
			c.folds[f] = n.Name
		}
	}
	for _, a := range n.Args {
		c.annotate(a)
	}
	if isUDF {
		return ModeLocal
	}
	if f := presenceOnlyFLWOR(n, c.isUDF); f != nil {
		// The argument was planned before its consumer was known; a consumer
		// that only counts lets "return $x" project too.
		c.planScan(f, true)
	}
	switch {
	case dataSourceFunctions[n.Name]:
		if c.cluster {
			return ModeRDD
		}
	case n.Name == "distinct-values" && len(n.Args) == 1:
		if c.info.ModeOf(n.Args[0]).Parallel() {
			return ModeRDD
		}
	case IsAggregate(n.Name) && len(n.Args) >= 1:
		if c.info.ModeOf(n.Args[0]).Parallel() {
			c.info.Pushdown[n] = true
			break
		}
		// A grand aggregate over a vector-eligible non-grouped, non-sorted
		// pipeline folds inside the columnar backend: the scan, filters and
		// the accumulator all run morsel-driven, nothing materializes
		// between the FLWOR and the aggregate. exists and empty fold as
		// early-exit counts — remaining morsels cancel once decided.
		if c.vectorize && len(n.Args) == 1 {
			if f, isFLWOR := n.Args[0].(*ast.FLWOR); isFLWOR {
				if vp := c.info.VectorPlans[f]; vp != nil && !vp.Grouped && vp.OrderBy == nil {
					c.info.VectorAggs[n] = true
					return ModeVector
				}
			}
		}
	}
	return ModeLocal
}

// annotateFLWOR assigns the FLWOR's mode: ModeDataFrame exactly when the
// initial clause — after an unbroken prefix of cluster-bound lets — is a
// for (without "allowing empty") over a parallel expression and a cluster
// is available, the static criterion of §4.4. A local-valued leading let
// keeps execution local (§4.5), as does any local initial input.
//
// A leading let whose value is parallel becomes a cluster-bound let
// (Info.RDDLets): its variable binds to the value's RDD once per
// evaluation, cached when consumed more than once. The hoist is skipped
// when the FLWOR has a group-by clause, because grouping re-binds
// non-grouping variables to their per-group concatenation — a let variable
// must then travel in the tuples.
func (c *checker) annotateFLWOR(f *ast.FLWOR) Mode {
	mode := ModeLocal
	hasGroup := false
	for _, cl := range f.Clauses {
		if _, ok := cl.(*ast.GroupByClause); ok {
			hasGroup = true
			break
		}
	}
	saved := c.modeEnv
	c.modeEnv = saved.child()
	defer func() { c.modeEnv = saved }()
	// leading is true while every clause seen so far is a cluster-bound
	// let, i.e. the prefix the runtime hoists out of the tuple chain.
	leading := true
	for i, cl := range f.Clauses {
		switch n := cl.(type) {
		case *ast.ForClause:
			in := c.annotate(n.In)
			if leading && c.cluster && in.Parallel() && !n.AllowEmpty {
				mode = ModeDataFrame
			}
			leading = false
			c.modeEnv.bind(n.Var, ModeLocal)
			if n.PosVar != "" {
				c.modeEnv.bind(n.PosVar, ModeLocal)
			}
		case *ast.LetClause:
			vm := c.annotate(n.Value)
			if leading && c.cluster && vm.Parallel() && !hasGroup {
				uses := countVarUses(n.Var, f.Clauses[i+1:], f.Return)
				c.info.RDDLets[n] = &RDDLetPlan{Uses: uses, Cache: uses > 1}
				c.modeEnv.bind(n.Var, ModeRDD)
			} else {
				leading = false
				c.modeEnv.bind(n.Var, ModeLocal)
			}
		case *ast.WhereClause:
			c.annotate(n.Cond)
			leading = false
		case *ast.GroupByClause:
			for _, spec := range n.Specs {
				c.annotate(spec.Expr)
				if spec.Expr != nil {
					c.modeEnv.bind(spec.Var, ModeLocal)
				}
			}
			leading = false
		case *ast.OrderByClause:
			for _, spec := range n.Specs {
				c.annotate(spec.Expr)
			}
			leading = false
		case *ast.CountClause:
			c.modeEnv.bind(n.Var, ModeLocal)
			leading = false
		}
	}
	c.annotate(f.Return)
	// Join detection runs first: it only fires on DataFrame-shaped FLWORs
	// (two parallel for clauses plus an equi-where), and a detected join
	// plan is itself input to the vector compile — when it builds the keys
	// and the pipeline tail, the same JoinPlan runs as a vector hash join
	// instead of a DataFrame shuffle join.
	if mode == ModeDataFrame {
		if plan := c.detectJoin(f); plan != nil {
			c.info.Joins[f] = plan
		}
	}
	// The columnar local backend takes precedence over both Local and
	// DataFrame execution when enabled and the vector compile succeeds:
	// a hot scan→filter→sort→project→group pipeline runs faster
	// batch-at-a-time on the driver than tuple-at-a-time (Local) or through
	// the exchange machinery (DataFrame). The JoinPlan stays recorded either
	// way, so the tuple fallback of a vector join keeps hash semantics.
	// A FLWOR an aggregate folds compiles with that fold as its tail, the
	// compile the runtime's folds reuse (the plan is the same either way);
	// one the fold cannot take, being grouped or sorted, compiles alone.
	if c.vectorize {
		k, err := c.info.CompileVector(f, c.folds[f])
		if err != nil && c.folds[f] != "" {
			k, err = c.info.CompileVector(f, "")
		}
		if err == nil {
			mode = ModeVector
			c.info.VectorPlans[f] = k.Plan
		}
	}
	// Column projection of a storage-backed head scan applies in every
	// mode, the vector backend's tuple fallback included.
	c.planScan(f, false)
	return mode
}
