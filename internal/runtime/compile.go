package runtime

import (
	"context"
	"time"

	"rumble/internal/ast"
	"rumble/internal/compiler"
	"rumble/internal/functions"
	"rumble/internal/item"
	"rumble/internal/profile"
	"rumble/internal/spark"
)

// Program is a fully compiled query: a root iterator plus the global
// dynamic context holding prolog variable bindings. It also retains the
// analyzed module, the analysis info and the profiling operator
// registry, so explain-analyze can render the same plan tree the
// operators were registered on.
type Program struct {
	Root    Iterator
	globals *DynamicContext

	module   *ast.Module
	info     *compiler.Info
	descs    []profile.OpDesc
	opKeys   map[any]int
	resultOp int
}

// GlobalContext returns the dynamic context with prolog variables bound.
func (p *Program) GlobalContext() *DynamicContext { return p.globals }

// Module returns the analyzed module this program was compiled from.
func (p *Program) Module() *ast.Module { return p.module }

// AnalysisInfo returns the static analysis the program was compiled
// under — the same Info Explain renders mode annotations from.
func (p *Program) AnalysisInfo() *compiler.Info { return p.info }

// NewProfile allocates a profile sized for this program's registered
// plan operators. Pass it to the profiled run variants; a nil profile
// keeps the zero-overhead fast path.
func (p *Program) NewProfile() *profile.Profile { return profile.New(p.descs) }

// OpIndex returns the profiling operator registered for an AST node
// during compilation, or -1. The explain-analyze renderer uses it to
// look up live stats by the same keys the compiler registered.
func (p *Program) OpIndex(key any) int {
	if id, ok := p.opKeys[key]; ok {
		return id
	}
	return -1
}

// ResultOp returns the index of the program-level result operator,
// which records the rows and wall time of the whole query.
func (p *Program) ResultOp() int { return p.resultOp }

// Mode returns the statically assigned execution mode of the root plan
// node: Local, RDD or DataFrame.
func (p *Program) Mode() compiler.Mode { return p.Root.Mode() }

// Run materializes the whole result locally (collecting through the
// cluster when the root plan node was compiled to a parallel mode).
func (p *Program) Run() ([]item.Item, error) { return p.RunContext(nil) }

// RunContext is Run under a Go context: cancellation or deadline expiry
// aborts evaluation cooperatively — loop iterators and cluster task loops
// poll the context and unwind with its error. A nil ctx disables the
// checkpoints entirely (no per-iteration overhead).
func (p *Program) RunContext(ctx context.Context) ([]item.Item, error) {
	return p.runDC(p.evalCtx(ctx, nil), 0)
}

// RunContextLimit is RunContext bounded to at most max result items: local
// evaluation stops streaming once max items are held, and cluster
// evaluation runs a take action (sequential partition scans with early
// stop) instead of a full collect — so a limited request never
// materializes an unbounded result on the driver. max <= 0 means no limit.
func (p *Program) RunContextLimit(ctx context.Context, max int) ([]item.Item, error) {
	return p.runDC(p.evalCtx(ctx, nil), max)
}

// RunProfiled is RunContextLimit with a per-query profile attached:
// every instrumented plan operator the evaluation passes through
// records rows and wall time into prof, and the program-level result
// operator records the result cardinality. A nil prof is exactly
// RunContextLimit — the nil check is the profiling-off fast path.
func (p *Program) RunProfiled(ctx context.Context, max int, prof *profile.Profile) ([]item.Item, error) {
	if prof == nil {
		return p.runDC(p.evalCtx(ctx, nil), max)
	}
	dc := p.evalCtx(ctx, prof)
	op := prof.Op(p.resultOp)
	start := time.Now()
	items, err := p.runDC(dc, max)
	op.AddRows(int64(len(items)))
	op.AddBatches(1)
	op.AddWall(time.Since(start))
	return items, err
}

// evalCtx builds the evaluation context: globals plus the optional Go
// context and profile, each attached only when present.
func (p *Program) evalCtx(ctx context.Context, prof *profile.Profile) *DynamicContext {
	dc := p.globals
	if ctx != nil {
		dc = dc.WithGoContext(ctx)
	}
	if prof != nil {
		dc = dc.WithProfile(prof)
	}
	return dc
}

// runDC evaluates the root under dc, bounded to max items when max is
// positive (local streaming cap, or a cluster take action instead of a
// full collect).
func (p *Program) runDC(dc *DynamicContext, max int) ([]item.Item, error) {
	if p.Root.Mode().Parallel() {
		if max > 0 {
			rdd, err := p.Root.RDD(dc)
			if err != nil {
				return nil, err
			}
			return spark.Take(spark.WithCancel(rdd, cancelOf(dc)), max)
		}
		return CollectRDD(p.Root, dc)
	}
	if max > 0 {
		return MaterializeN(p.Root, dc, max)
	}
	return Materialize(p.Root, dc)
}

// Analyze runs the static phase a module compiles under in env: the
// analysis options derive from env, and the plan verifier runs when
// env.VerifyPlans is set. Compile and Explain both analyze through it, so
// the plan Explain shows is the plan that runs.
func Analyze(m *ast.Module, env *Env) (*compiler.Info, error) {
	executors := 0
	if env.Spark != nil {
		executors = env.Spark.Conf().Executors
	}
	info, err := compiler.Analyze(m, compiler.Options{Cluster: env.Spark != nil, NoJoin: env.NoJoin,
		Vectorize: env.Vectorize, Executors: executors})
	if err != nil {
		return nil, err
	}
	if env.VerifyPlans {
		if err := compiler.Verify(m, info); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// Compile analyzes and compiles a parsed module against an environment.
// The static phase assigns every expression its execution mode; the plan
// nodes built here carry that annotation and never probe it dynamically.
func Compile(m *ast.Module, env *Env) (*Program, error) {
	info, err := Analyze(m, env)
	if err != nil {
		return nil, err
	}
	c := &comp{env: env, info: info, udfs: map[string]*udf{}, opKeys: map[any]int{}}
	prog := &Program{}
	c.globals = func() *DynamicContext { return prog.globals }
	// Declare UDFs first (bodies compiled after, enabling recursion).
	for _, fd := range m.Functions {
		c.udfs[fd.Name] = &udf{name: fd.Name, params: fd.Params}
	}
	for _, fd := range m.Functions {
		body, err := c.compile(fd.Body)
		if err != nil {
			return nil, err
		}
		c.udfs[fd.Name].body = body
	}
	// Global variables evaluate eagerly, in declaration order.
	globals := NewDynamicContext()
	for _, vd := range m.Vars {
		init, err := c.compile(vd.Init)
		if err != nil {
			return nil, err
		}
		seq, err := Materialize(init, globals)
		if err != nil {
			return nil, err
		}
		globals = globals.BindVar(vd.Name, seq)
	}
	prog.globals = globals
	root, err := c.compile(m.Body)
	if err != nil {
		return nil, err
	}
	prog.Root = root
	// The program-level result operator records the whole query's output
	// cardinality and wall time, whichever backend ran. Its input is the
	// root expression's operator when one was registered.
	prog.resultOp = c.op(nil, "result", c.opOf(root, m.Body))
	prog.module, prog.info = m, info
	prog.descs, prog.opKeys = c.descs, c.opKeys
	return prog, nil
}

type comp struct {
	env     *Env
	info    *compiler.Info
	udfs    map[string]*udf
	globals func() *DynamicContext

	// Profiling operator registry. Ops are dedup-keyed by AST node: the
	// tuple pipeline and the vector backend compile from the same clause
	// pointers, so both register the same operator and — since exactly
	// one backend runs per evaluation — never double-count.
	descs  []profile.OpDesc
	opKeys map[any]int
}

// pn builds the planNode of e from the compiler's mode annotation.
func (c *comp) pn(e ast.Expr) planNode {
	return planNode{mode: c.info.ModeOf(e)}
}

// op registers a profiling operator named name whose upstream operator
// is input (-1 for sources), dedup-keyed by key; a nil key always
// appends. Returns the operator's index into the program's profiles.
func (c *comp) op(key any, name string, input int) int {
	if key != nil {
		if id, ok := c.opKeys[key]; ok {
			return id
		}
	}
	id := len(c.descs)
	c.descs = append(c.descs, profile.OpDesc{Name: name, Input: input})
	if key != nil {
		c.opKeys[key] = id
	}
	return id
}

// opOf resolves the profiling operator already registered for a
// compiled iterator (or its AST node), or -1. Used to chain rows-in
// derivation across operator boundaries.
func (c *comp) opOf(it Iterator, e ast.Expr) int {
	if p, ok := it.(*profiledIter); ok {
		return p.opID
	}
	if e != nil {
		if id, ok := c.opKeys[e]; ok {
			return id
		}
	}
	return -1
}

// profiled wraps it so evaluations with a profile attached record rows
// out, batches and wall time under the operator registered for key.
func (c *comp) profiled(key any, name string, input int, it Iterator) Iterator {
	return &profiledIter{inner: it, opID: c.op(key, name, input)}
}

// compileAll compiles each expression, in order.
func (c *comp) compileAll(es []ast.Expr) ([]Iterator, error) {
	its := make([]Iterator, len(es))
	for i, e := range es {
		it, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		its[i] = it
	}
	return its, nil
}

func (c *comp) compile(e ast.Expr) (Iterator, error) {
	switch n := e.(type) {
	case *ast.Literal:
		return newLiteral(n.Value), nil
	case *ast.VarRef:
		return &varRefIter{planNode: c.pn(n), name: n.Name}, nil
	case *ast.ContextItem:
		return contextItemIter{}, nil
	case *ast.CommaExpr:
		children, err := c.compileAll(n.Exprs)
		if err != nil {
			return nil, err
		}
		return &commaIter{planNode: c.pn(n), children: children}, nil
	case *ast.ObjectConstructor:
		oc := &objectConstructorIter{}
		if keys, ok := literalKeys(n.Keys); ok {
			oc.shape = item.NewShape(keys)
		}
		for i := range n.Keys {
			if oc.shape == nil {
				k, err := c.compile(n.Keys[i])
				if err != nil {
					return nil, err
				}
				oc.keys = append(oc.keys, k)
			}
			v, err := c.compile(n.Values[i])
			if err != nil {
				return nil, err
			}
			oc.values = append(oc.values, v)
		}
		return oc, nil
	case *ast.ArrayConstructor:
		if n.Body == nil {
			return &arrayConstructorIter{}, nil
		}
		body, err := c.compile(n.Body)
		if err != nil {
			return nil, err
		}
		return &arrayConstructorIter{body: body}, nil
	case *ast.Unary:
		op, err := c.compile(n.Operand)
		if err != nil {
			return nil, err
		}
		return &unaryIter{minus: n.Minus, operand: op}, nil
	case *ast.Arith:
		l, r, err := c.compileTwo(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &arithIter{op: n.Op, l: l, r: r}, nil
	case *ast.RangeExpr:
		l, r, err := c.compileTwo(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &rangeIter{l: l, r: r}, nil
	case *ast.ConcatExpr:
		l, r, err := c.compileTwo(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &concatIter{l: l, r: r}, nil
	case *ast.Comparison:
		l, r, err := c.compileTwo(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &comparisonIter{op: string(n.Op), general: n.General, l: l, r: r}, nil
	case *ast.Logic:
		l, r, err := c.compileTwo(n.L, n.R)
		if err != nil {
			return nil, err
		}
		return &logicIter{isAnd: n.IsAnd, l: l, r: r}, nil
	case *ast.Predicate:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		pred, err := c.compile(n.Pred)
		if err != nil {
			return nil, err
		}
		return &predicateIter{planNode: c.pn(n), input: in, pred: pred}, nil
	case *ast.SimpleMap:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		mapping, err := c.compile(n.Mapping)
		if err != nil {
			return nil, err
		}
		return &simpleMapIter{planNode: c.pn(n), input: in, mapping: mapping}, nil
	case *ast.ObjectLookup:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		ol := &objectLookupIter{planNode: c.pn(n), input: in}
		if lit, ok := n.Key.(*ast.Literal); ok {
			// A literal key is part of the plan node, not evaluated per row.
			if s, err := item.StringValue(lit.Value); err == nil {
				ol.lit, ol.hasLit = s, true
				return ol, nil
			}
		}
		if ol.key, err = c.compile(n.Key); err != nil {
			return nil, err
		}
		return ol, nil
	case *ast.ArrayLookup:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		al := &arrayLookupIter{planNode: c.pn(n), input: in}
		if lit, ok := n.Index.(*ast.Literal); ok {
			// A literal index that casts to an integer is part of the plan
			// node; one that does not keeps the dynamic path and its error.
			if i, err := item.CastToInteger(lit.Value); err == nil {
				al.lit, al.hasLit = int64(i.(item.Int)), true
				return al, nil
			}
		}
		if al.index, err = c.compile(n.Index); err != nil {
			return nil, err
		}
		return al, nil
	case *ast.ArrayUnbox:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		return &arrayUnboxIter{planNode: c.pn(n), input: in}, nil
	case *ast.FunctionCall:
		return c.compileCall(n)
	case *ast.IfExpr:
		cond, err := c.compile(n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compile(n.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.compile(n.Else)
		if err != nil {
			return nil, err
		}
		return &ifIter{planNode: c.pn(n), cond: cond, then: then, els: els, sc: c.env.Spark}, nil
	case *ast.SwitchExpr:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		si := &switchIter{input: in}
		for _, cs := range n.Cases {
			var vals []Iterator
			for _, v := range cs.Values {
				vi, err := c.compile(v)
				if err != nil {
					return nil, err
				}
				vals = append(vals, vi)
			}
			res, err := c.compile(cs.Result)
			if err != nil {
				return nil, err
			}
			si.cases = append(si.cases, switchCase{values: vals, result: res})
		}
		dflt, err := c.compile(n.Default)
		if err != nil {
			return nil, err
		}
		si.deflt = dflt
		return si, nil
	case *ast.TryCatch:
		try, err := c.compile(n.Try)
		if err != nil {
			return nil, err
		}
		catch, err := c.compile(n.Catch)
		if err != nil {
			return nil, err
		}
		return &tryCatchIter{try: try, catch: catch}, nil
	case *ast.Quantified:
		qi := &quantifiedIter{every: n.Every}
		for _, b := range n.Bindings {
			in, err := c.compile(b.In)
			if err != nil {
				return nil, err
			}
			qi.bindings = append(qi.bindings, quantBinding{name: b.Var, in: in})
		}
		sat, err := c.compile(n.Satisfies)
		if err != nil {
			return nil, err
		}
		qi.satisfies = sat
		return qi, nil
	case *ast.InstanceOf:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		return &instanceOfIter{input: in, typ: n.Type}, nil
	case *ast.TreatAs:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		return &treatIter{input: in, typ: n.Type}, nil
	case *ast.CastableAs:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		return &castableIter{input: in, typeName: n.TypeName}, nil
	case *ast.CastAs:
		in, err := c.compile(n.Input)
		if err != nil {
			return nil, err
		}
		return &castIter{input: in, typeName: n.TypeName}, nil
	case *ast.FLWOR:
		return c.compileFLWOR(n)
	default:
		return nil, Errorf("compile: unknown expression node %T", e)
	}
}

func (c *comp) compileTwo(l, r ast.Expr) (Iterator, Iterator, error) {
	li, err := c.compile(l)
	if err != nil {
		return nil, nil, err
	}
	ri, err := c.compile(r)
	if err != nil {
		return nil, nil, err
	}
	return li, ri, nil
}

func (c *comp) compileCall(n *ast.FunctionCall) (Iterator, error) {
	if c.info.VectorAggs[n] {
		// The compiler compiled the argument as a vector pipeline: the
		// whole aggregation folds inside the columnar backend, and the
		// generic argument compilation below never runs.
		return c.compileVectorAgg(n)
	}
	args, err := c.compileAll(n.Args)
	if err != nil {
		return nil, err
	}
	// The compiler's group-by rewrite turns count($v) into #count-of($v#count),
	// whose value is the pre-aggregated singleton integer.
	if n.Name == "#count-of" {
		return args[0], nil
	}
	if fn, ok := c.udfs[n.Name]; ok {
		return &udfCallIter{fn: fn, args: args, globals: c.globals}, nil
	}
	switch n.Name {
	case "json-file":
		ji := &jsonFileIter{planNode: c.pn(n), env: c.env, path: args[0], scan: c.info.ScanPlans[n]}
		if len(args) == 2 {
			ji.min = args[1]
		}
		return c.profiled(n, "json-file", -1, ji), nil
	case "parallelize":
		pi := &parallelizeIter{planNode: c.pn(n), env: c.env, child: args[0]}
		if len(args) == 2 {
			pi.parts = args[1]
		}
		return c.profiled(n, "parallelize", c.opOf(args[0], n.Args[0]), pi), nil
	case "collection":
		return c.profiled(n, "collection", -1,
			&collectionIter{planNode: c.pn(n), env: c.env, name: args[0], scan: c.info.ScanPlans[n]}), nil
	case "distinct-values":
		return c.profiled(n, "distinct-values", c.opOf(args[0], n.Args[0]),
			&distinctValuesIter{planNode: c.pn(n), arg: args[0]}), nil
	}
	if compiler.IsAggregate(n.Name) {
		// The compiler decided statically whether the aggregation pushes
		// down to a cluster action or folds the materialized sequence.
		ai := &aggregateIter{name: n.Name, arg: args[0], pushdown: c.info.Pushdown[n]}
		if len(args) == 2 {
			ai.dflt = args[1]
		}
		return c.profiled(n, n.Name, c.opOf(args[0], n.Args[0]), ai), nil
	}
	fn, ok := functions.Lookup(n.Name)
	if !ok {
		return nil, Errorf("unknown function %s", n.Name)
	}
	return &builtinCallIter{fn: fn, args: args}, nil
}

// peelRDDLets compiles the unbroken prefix of leading let clauses the
// compiler marked as cluster-bound (Info.RDDLets): their variables bind to
// the value's RDD once per evaluation — cached when consumed more than
// once — instead of materializing per tuple. It returns the remaining
// clause chain alongside the bindings.
func (c *comp) peelRDDLets(f *ast.FLWOR) ([]ast.Clause, []*rddLetBinding, error) {
	clauses := f.Clauses
	var rlets []*rddLetBinding
	for len(clauses) > 0 {
		lc, ok := clauses[0].(*ast.LetClause)
		if !ok {
			break
		}
		lp := c.info.RDDLets[lc]
		if lp == nil {
			break
		}
		val, err := c.compile(lc.Value)
		if err != nil {
			return nil, nil, err
		}
		rlets = append(rlets, &rddLetBinding{name: lc.Var, value: val, cache: lp.Cache})
		clauses = clauses[1:]
	}
	return clauses, rlets, nil
}

// compileFLWOR builds the local tuple pipeline (plus the DataFrame plan
// when annotated ModeDataFrame), upgrades it to the columnar backend when
// the compiler chose ModeVector, and wraps any peeled cluster-bound lets.
func (c *comp) compileFLWOR(f *ast.FLWOR) (Iterator, error) {
	clauses, rlets, err := c.peelRDDLets(f)
	if err != nil {
		return nil, err
	}
	out, err := c.compileFLWORPipeline(f, clauses, len(rlets) > 0)
	if err != nil {
		return nil, err
	}
	var result Iterator = out
	if c.info.VectorPlans[f] != nil {
		// The compiler chose the columnar backend. The tuple pipeline just
		// built stays attached as the fallback for multi-item free
		// variables.
		if result, err = c.compileVector(f, out, "", c.pn(f)); err != nil {
			return nil, err
		}
	}
	if len(rlets) > 0 {
		return &rddLetIter{planNode: c.pn(f), lets: rlets, inner: result}, nil
	}
	return result, nil
}

// compileFLWORPipeline builds the tuple pipeline (and DataFrame plan) for
// the clause chain remaining after cluster-bound lets were peeled; hoisted
// reports whether such lets exist, in which case the chain evaluates under
// their bindings off a single unit tuple. The tuple has a compile-time
// schema, as a DataFrame has: frame tracks the variables bound so far and
// each binding clause is handed the frame of the tuples it emits.
func (c *comp) compileFLWORPipeline(f *ast.FLWOR, clauses []ast.Clause, hoisted bool) (*flworIter, error) {
	ret, err := c.compile(f.Return)
	if err != nil {
		return nil, err
	}
	out := &flworIter{planNode: c.pn(f), ret: ret}

	var local clauseEval
	var frame []string
	// bind returns the running frame extended by names, a fresh slice: the
	// frames of earlier clauses stay as they are.
	bind := func(names ...string) []string {
		frame = append(append(make([]string, 0, len(frame)+len(names)), frame...), names...)
		return frame
	}
	// The mode decision was made statically (§4.4/§4.5): ModeDataFrame
	// exactly when the initial clause (after any cluster-bound lets) is a
	// for (without "allowing empty") over a parallel expression on an
	// available cluster. The plan's steps drive the same evaluators the
	// local chain links.
	var plan *dfPlan
	if c.info.ModeOf(f) == compiler.ModeDataFrame {
		plan = &dfPlan{ret: ret}
	}
	step := func(s dfStep) {
		if plan != nil {
			plan.steps = append(plan.steps, s)
		}
	}

	// prev tracks the profiling operator of the clause upstream of the
	// one being compiled, so rows-in derivation chains through the
	// pipeline. Ops are keyed by clause AST pointers: the vector backend
	// compiles from the same clauses and shares the same operators.
	prev := -1
	// link appends one clause to the local chain under its profiling operator.
	link := func(ev clauseEval, node any, label string, input int) {
		prev = c.op(node, label, input)
		local = &profiledClause{inner: ev, opID: prev}
	}
	if hoisted {
		// The hoisted lets produce exactly one incoming tuple; the
		// remaining chain (possibly empty) evaluates under their bindings.
		local = unitEval{}
	}
	headDone := false
	if jp := c.info.Joins[f]; jp != nil {
		// The compiler replaced the leading for/for/where with an equi-join:
		// the join heads both the local tuple pipeline and the DataFrame
		// plan, and the probe-filter then residual conjuncts become
		// ordinary where steps (only the vector probe runs the probe filter
		// before the join expands).
		cj, err := c.compileJoin(jp)
		if err != nil {
			return nil, err
		}
		frame = cj.frame
		link(&joinEval{j: cj}, jp, "join", -1)
		if plan != nil {
			plan.join = cj
		}
		for i, cond := range cj.probeFilter {
			link(&whereEval{parent: local, cond: cond}, jp.ProbeFilter[i], "where", prev)
			step(dfWhereStep(cond))
		}
		for i, res := range cj.residual {
			link(&whereEval{parent: local, cond: res}, jp.Residual[i], "where", prev)
			step(dfWhereStep(res))
		}
		clauses = clauses[3:]
		headDone = true
	}

	for i, cl := range clauses {
		switch n := cl.(type) {
		case *ast.ForClause:
			in, err := c.compile(n.In)
			if err != nil {
				return nil, err
			}
			fe := &forEval{parent: local, frame: bind(n.Var), allowEmpty: n.AllowEmpty, in: in}
			if n.PosVar != "" {
				fe.pos, fe.frame = true, bind(n.PosVar)
			}
			input := prev
			if input < 0 {
				input = c.opOf(in, n.In) // head for: rows in = scan rows out
			}
			link(fe, n, "for $"+n.Var, input)
			if i == 0 && !headDone {
				if plan != nil {
					plan.head = fe
				}
			} else {
				step(dfForStep(fe))
			}
		case *ast.LetClause:
			val, err := c.compile(n.Value)
			if err != nil {
				return nil, err
			}
			le := &letEval{parent: local, frame: bind(n.Var), value: val}
			link(le, n, "let $"+n.Var, prev)
			step(dfLetStep(le))
		case *ast.WhereClause:
			cond, err := c.compile(n.Cond)
			if err != nil {
				return nil, err
			}
			link(&whereEval{parent: local, cond: cond}, n, "where", prev)
			step(dfWhereStep(cond))
		case *ast.GroupByClause:
			specs := make([]groupSpecEval, len(n.Specs))
			for i, spec := range n.Specs {
				specs[i].varName = spec.Var
				if spec.Expr != nil {
					if specs[i].expr, err = c.compile(spec.Expr); err != nil {
						return nil, err
					}
				}
			}
			var usage map[string]compiler.VarUsage
			if gplan := c.info.GroupPlans[n]; gplan != nil {
				usage = gplan.Usage
			}
			ge := newGroupByEval(local, frame, specs, usage)
			frame = ge.frame
			link(ge, n, "group by", prev)
			step(dfGroupStep(ge))
		case *ast.OrderByClause:
			oe := &orderByEval{parent: local, topK: -1}
			if k, ok := c.info.TopK[n]; ok {
				oe.topK = k
			}
			for _, spec := range n.Specs {
				e, err := c.compile(spec.Expr)
				if err != nil {
					return nil, err
				}
				oe.specs = append(oe.specs, orderSpecEval{expr: e, emptyGreatest: spec.EmptyGreatest})
				oe.desc = append(oe.desc, spec.Descending)
			}
			link(oe, n, "order by", prev)
			step(dfOrderStep(oe))
		case *ast.CountClause:
			ce := &countEval{parent: local, frame: bind(n.Var)}
			link(ce, n, "count $"+n.Var, prev)
			step(dfCountStep(ce))
		default:
			return nil, Errorf("compile: unknown clause node %T", cl)
		}
	}
	out.local = local
	out.opRoot = c.op(f, "flwor", prev)
	out.df = plan
	return out, nil
}

// compileVectorAgg builds the columnar plan of a grand aggregate call the
// compiler annotated ModeVector (Info.VectorAggs): the vector-eligible
// FLWOR argument compiles into a morsel pipeline whose tail folds the
// return projection into a single mergeable accumulator instead of
// emitting rows, so a filtered-scan count/sum/avg/min/max runs (and
// parallelizes) entirely inside the columnar backend. The fallback — used
// when a free variable binds a multi-item sequence at run time, and when
// the morsels of an exists/empty fold fail — is the ordinary local
// aggregate fold over the tuple pipeline.
func (c *comp) compileVectorAgg(n *ast.FunctionCall) (Iterator, error) {
	f, ok := n.Args[0].(*ast.FLWOR)
	if !ok {
		return nil, Errorf("vector: grand aggregate argument is not a FLWOR")
	}
	clauses, rlets, err := c.peelRDDLets(f)
	if err != nil {
		return nil, err
	}
	tuple, err := c.compileFLWORPipeline(f, clauses, len(rlets) > 0)
	if err != nil {
		return nil, err
	}
	fallback := &aggregateIter{name: n.Name, arg: tuple}
	vit, err := c.compileVector(f, fallback, n.Name, c.pn(n))
	if err != nil {
		return nil, err
	}
	out := c.profiled(n, n.Name, c.opOf(nil, f), vit)
	if len(rlets) > 0 {
		return &rddLetIter{planNode: c.pn(n), lets: rlets, inner: out}, nil
	}
	return out, nil
}

// literalKeys returns the keys of an object constructor whose every key is
// a string literal; ok=false when some key is computed.
func literalKeys(keys []ast.Expr) (out []string, ok bool) {
	out = make([]string, len(keys))
	for i, k := range keys {
		if out[i], ok = compiler.StringLiteral(k); !ok {
			return nil, false
		}
	}
	return out, true
}
