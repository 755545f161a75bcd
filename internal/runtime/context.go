// Package runtime implements Rumble's runtime iterators: each compiled
// JSONiq expression becomes an iterator that can evaluate (i) locally by
// streaming items, (ii) on the cluster as an RDD of items, (iii) — for
// FLWOR clauses — as a tuple stream, the same tuples and clause evaluators
// streamed locally or moved through an RDD, and (iv) — for vector-eligible
// FLWOR pipelines under Options.Vectorize — batch-at-a-time over the typed
// column kernels of internal/vector. The backend choice is the compiler's
// static mode annotation (compiler.Mode); plan nodes carry it and never
// probe it at run time, exactly as §5 of the paper describes.
//
// Local evaluation is push-based: an iterator streams its items through a
// yield callback. All evaluation state lives on the stack of the call, so a
// compiled iterator tree is immutable and can be shared freely by
// concurrent executor tasks — this replaces the closure-serialization
// machinery Spark uses to ship Java iterators to executors. Evaluation is
// cancellable: a Go context threaded through the DynamicContext is polled
// at loop checkpoints and inside cluster task loops.
package runtime

import (
	"context"
	"fmt"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/profile"
	"rumble/internal/spark"
)

// DynamicContext carries variable bindings and the optional context item
// ($$) during evaluation. Contexts chain to their parent and never mutate
// after construction — with one exception, the tuple scope (tupleScope),
// which its owning loop re-points at each row. A scope is private to that
// loop (one per clause evaluation, one per partition task on the cluster)
// and no evaluation keeps a context past the call it was handed, so the
// contexts concurrent executor tasks share are never written.
type DynamicContext struct {
	parent *DynamicContext
	prof   *profile.Profile // per-query stats, copied down from the root
	// A slot-bound context (a tuple scope) carries no map: names is the
	// frame of a FLWOR tuple — fixed per clause at compile time and shared
	// by every tuple of the clause — and name i resolves to vals[i]. The
	// last binding of a name shadows earlier ones. The per-call kinds of
	// binding live in named.
	names []string
	vals  [][]item.Item
	// The context item ($$) and its 1-based position; nil when this context
	// binds none.
	ctxItem item.Item
	ctxPos  int64
	named   *namedBindings
}

// namedBindings are the bindings made once per call or per evaluation
// rather than per row: map-bound variables (globals, function parameters,
// quantifier and catch variables), cluster-resident variables, and the Go
// context.
type namedBindings struct {
	vars  map[string][]item.Item
	rdds  map[string]*spark.RDD[item.Item]
	goCtx context.Context // cancellation/deadline, set once at the root
}

// NewDynamicContext returns an empty root context.
func NewDynamicContext() *DynamicContext {
	return &DynamicContext{}
}

// BindVars returns a child context with the given variable bindings added.
// The map is owned by the context afterwards.
func (dc *DynamicContext) BindVars(vars map[string][]item.Item) *DynamicContext {
	return &DynamicContext{parent: dc, prof: dc.prof, named: &namedBindings{vars: vars}}
}

// BindVar returns a child context with one extra binding.
func (dc *DynamicContext) BindVar(name string, seq []item.Item) *DynamicContext {
	return dc.BindVars(map[string][]item.Item{name: seq})
}

// tupleScope returns a child context that one loop re-points at each of
// its rows — a FLWOR tuple (rebind) or a context item (rebindItem) — so
// binding a row costs no allocation.
//
// Lifetime rule: a scope is rebound only by the loop that owns it, and
// only after the evaluation it was last passed to has returned; so no
// evaluation may keep a *DynamicContext past the call it was handed. This
// holds because items hold no contexts; an RDD built under a context (a
// hoisted cluster let, an aggregate pushed down to the cluster) is consumed
// by a synchronous action inside the call that built it; a vector join's
// vjoinRun lives for one Stream; and a recursive function that re-enters a
// FLWOR starts a new clause evaluation, which makes scopes of its own.
func (dc *DynamicContext) tupleScope() *DynamicContext {
	return &DynamicContext{parent: dc, prof: dc.prof}
}

// rebind points the scope at one tuple: names[i] binds to vals[i].
// Neither slice is copied.
func (dc *DynamicContext) rebind(names []string, vals [][]item.Item) *DynamicContext {
	dc.names, dc.vals = names, vals
	return dc
}

// rebindItem points the scope at one context item ($$) with its 1-based
// position.
func (dc *DynamicContext) rebindItem(it item.Item, pos int64) *DynamicContext {
	dc.ctxItem, dc.ctxPos = it, pos
	return dc
}

// slotOf returns the slot a frame binds name at — the last one, as a
// redeclared name shadows — or -1.
func slotOf(frame []string, name string) int {
	for i := len(frame) - 1; i >= 0; i-- {
		if frame[i] == name {
			return i
		}
	}
	return -1
}

// slot resolves name against this context's own frame.
func (dc *DynamicContext) slot(name string) ([]item.Item, bool) {
	if i := slotOf(dc.names, name); i >= 0 {
		return dc.vals[i], true
	}
	return nil, false
}

// BindRDDVar returns a child context binding name to a cluster-resident
// sequence. The compiler only emits references that consume such a binding
// through Resolve, so ordinary Lookup never observes it.
func (dc *DynamicContext) BindRDDVar(name string, r *spark.RDD[item.Item]) *DynamicContext {
	return &DynamicContext{parent: dc, prof: dc.prof, named: &namedBindings{rdds: map[string]*spark.RDD[item.Item]{name: r}}}
}

// WithGoContext returns a child context carrying a Go context. Evaluation
// honors its cancellation and deadline at cooperative checkpoints: loop
// iterators check it periodically and cluster actions poll it inside
// partition tasks.
func (dc *DynamicContext) WithGoContext(ctx context.Context) *DynamicContext {
	return &DynamicContext{parent: dc, prof: dc.prof, named: &namedBindings{goCtx: ctx}}
}

// GoContext resolves the nearest Go context in the chain; nil means the
// evaluation is not cancellable.
func (dc *DynamicContext) GoContext() context.Context {
	for c := dc; c != nil; c = c.parent {
		if c.named != nil && c.named.goCtx != nil {
			return c.named.goCtx
		}
	}
	return nil
}

// WithProfile returns a child context carrying a per-query profile.
// Instrumented iterators resolve it via Profile(); recording methods on
// the ops of a nil profile no-op, so profiling off costs one nil check.
func (dc *DynamicContext) WithProfile(p *profile.Profile) *DynamicContext {
	return &DynamicContext{parent: dc, prof: p}
}

// Profile returns this evaluation's profile; nil means profiling is
// off. Unlike GoContext, the pointer is copied into every child
// context at construction, so the lookup is a single field read — the
// profiling-off fast path costs one nil check on hot paths.
func (dc *DynamicContext) Profile() *profile.Profile { return dc.prof }

// cancelOf adapts the context's Go context into the polling function
// spark.WithCancel expects, or nil when evaluation is not cancellable.
func cancelOf(dc *DynamicContext) func() error {
	ctx := dc.GoContext()
	if ctx == nil {
		return nil
	}
	return ctx.Err
}

// Lookup resolves a variable through the context chain.
func (dc *DynamicContext) Lookup(name string) ([]item.Item, bool) {
	for c := dc; c != nil; c = c.parent {
		if c.names != nil {
			if seq, ok := c.slot(name); ok {
				return seq, true
			}
		}
		if c.named != nil {
			if seq, ok := c.named.vars[name]; ok {
				return seq, true
			}
		}
	}
	return nil, false
}

// Resolve resolves a variable to either a materialized sequence or a
// cluster-resident RDD, whichever binding is nearest in the chain. Exactly
// one of seq/rdd is meaningful when found.
func (dc *DynamicContext) Resolve(name string) (seq []item.Item, rdd *spark.RDD[item.Item], found bool) {
	for c := dc; c != nil; c = c.parent {
		if c.names != nil {
			if s, ok := c.slot(name); ok {
				return s, nil, true
			}
		}
		if c.named != nil {
			if s, ok := c.named.vars[name]; ok {
				return s, nil, true
			}
			if r, ok := c.named.rdds[name]; ok {
				return nil, r, true
			}
		}
	}
	return nil, nil, false
}

// ContextItem resolves $$ through the chain.
func (dc *DynamicContext) ContextItem() (item.Item, int64, bool) {
	for c := dc; c != nil; c = c.parent {
		if c.ctxItem != nil {
			return c.ctxItem, c.ctxPos, true
		}
	}
	return nil, 0, false
}

// Error is a dynamic (runtime) error raised during evaluation, catchable by
// try/catch expressions.
type Error struct {
	Msg string
}

func (e *Error) Error() string { return e.Msg }

// Errorf constructs a dynamic error.
func Errorf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// Iterator is a compiled expression — one node of the physical plan.
// Stream is always available; RDD is available when the statically assigned
// mode is parallel (RDD or DataFrame), in which case the expression's
// output physically lives on the cluster and is never materialized locally
// unless a consumer demands it.
type Iterator interface {
	// Stream evaluates the expression in dc and pushes every result item
	// to yield, in order.
	Stream(dc *DynamicContext, yield func(item.Item) error) error
	// Mode returns the execution mode the compiler's static annotation
	// phase assigned to this plan node. It is a compile-time constant:
	// nothing is probed at run time.
	Mode() compiler.Mode
	// RDD returns the result as an RDD of items. Callers must check that
	// Mode is parallel.
	RDD(dc *DynamicContext) (*spark.RDD[item.Item], error)
}

// planNode carries the execution mode the compiler assigned to a plan node.
// Iterators with cluster execution paths embed it; the runtime compiler
// fills it from compiler.Info when it builds the node.
type planNode struct {
	mode compiler.Mode
}

// Mode implements Iterator.
func (p planNode) Mode() compiler.Mode { return p.mode }

// localOnly provides the mode and RDD stubs for iterators that only ever
// run locally (the compiler annotates them ModeLocal unconditionally).
type localOnly struct{}

// Mode implements Iterator.
func (localOnly) Mode() compiler.Mode { return compiler.ModeLocal }

// RDD implements Iterator.
func (localOnly) RDD(*DynamicContext) (*spark.RDD[item.Item], error) {
	return nil, Errorf("expression does not support RDD execution")
}

// readInPlace is Materialize's closure-free, copy-free read of a literal, a
// bound variable and a literal-key lookup on one ($v.key): the result is a
// sequence shared with the plan, the binding or the object,
// capacity-clipped so that an append reallocates instead of writing into
// it. ok=false declines every other shape.
func readInPlace(it Iterator, dc *DynamicContext) (seq []item.Item, ok bool, err error) {
	switch n := it.(type) {
	case *literalIter:
		return n.seq, true, nil
	case *varRefIter:
		if seq, rdd, ok := dc.Resolve(n.name); ok && rdd == nil {
			return seq[:len(seq):len(seq)], true, nil
		}
	case *objectLookupIter:
		if seq, handled, err := n.fieldOf(dc); handled {
			return seq, true, err
		}
	}
	return nil, false, nil
}

// Materialize evaluates it locally and returns the whole sequence. For
// RDD-capable iterators this collects the RDD (subject to the context's
// MaxResultItems cap), mirroring Rumble's local API over Spark results.
//
// What readInPlace reads is returned as it reads it, $$ as a one-item
// sequence of its own, and a vector plan's morsel results taken over
// whole, none through a per-item closure. Callers must not write through
// any Materialize result.
func Materialize(it Iterator, dc *DynamicContext) ([]item.Item, error) {
	if seq, ok, err := readInPlace(it, dc); ok {
		return seq, err
	}
	switch n := it.(type) {
	case contextItemIter:
		if ci, _, ok := dc.ContextItem(); ok {
			return []item.Item{ci}, nil
		}
	case *vectorIter:
		return n.collect(dc)
	}
	var out []item.Item
	if err := it.Stream(dc, func(i item.Item) error {
		out = append(out, i)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// errLimitReached aborts a limited materialization once max items are
// held. It is deliberately not a *Error: try/catch must not observe it.
var errLimitReached = fmt.Errorf("runtime: result limit reached")

// MaterializeN evaluates like Materialize but stops the evaluation as soon
// as max items are held, so a limited consumer never pays for (or buffers)
// the rest of the result. max must be positive.
func MaterializeN(it Iterator, dc *DynamicContext, max int) ([]item.Item, error) {
	out := make([]item.Item, 0, min(max, 1024))
	err := it.Stream(dc, func(i item.Item) error {
		out = append(out, i)
		if len(out) >= max {
			return errLimitReached
		}
		return nil
	})
	if err != nil && err != errLimitReached {
		return nil, err
	}
	return out, nil
}

// CollectRDD materializes an RDD-capable iterator through the cluster,
// subject to the context's MaxResultItems cap — the "collect and replay
// locally" path of §5.5. Consumers that hold a whole query result (the
// engine root, the shell) use it; nested evaluation inside closures always
// streams through the local API instead. When dc carries a Go context, the
// collect polls it cooperatively inside the partition tasks.
func CollectRDD(it Iterator, dc *DynamicContext) ([]item.Item, error) {
	rdd, err := it.RDD(dc)
	if err != nil {
		return nil, err
	}
	return spark.Collect(spark.WithCancel(rdd, cancelOf(dc)))
}

// exactlyOneAtomic enforces that a sequence holds exactly one atomic item,
// the common requirement of arithmetic and comparison operands.
func exactlyOneAtomic(seq []item.Item, what string) (item.Item, error) {
	if len(seq) != 1 {
		return nil, Errorf("%s requires a single item, got a sequence of %d", what, len(seq))
	}
	if !item.IsAtomic(seq[0]) {
		return nil, Errorf("%s requires an atomic item, got %s", what, seq[0].Kind())
	}
	return seq[0], nil
}
