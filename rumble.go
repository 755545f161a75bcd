// Package rumble is a JSONiq query engine for large, heterogeneous, nested
// JSON datasets, reproducing the system described in "Rumble: Data
// Independence for Large Messy Data Sets" (VLDB 2020) in pure Go.
//
// Queries are written in JSONiq and executed over an embedded Spark-like
// parallel dataflow engine: expressions map to RDD transformations and
// FLWOR clauses to the paper's DataFrame mappings — one set of clause
// evaluators over one tuple form, streamed locally or moved through RDDs —
// while the user only ever sees sequences of items.
//
//	eng := rumble.New(rumble.Config{})
//	res, err := eng.Query(`
//	    for $o in json-file("data.jsonl")
//	    where $o.guess eq $o.target
//	    group by $lang := $o.target
//	    return { "language": $lang, "correct": count($o) }`)
package rumble

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"rumble/internal/compiler"
	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/parser"
	"rumble/internal/profile"
	"rumble/internal/runtime"
	"rumble/internal/segment"
	"rumble/internal/spark"
)

// Profile collects per-query execution statistics (per-operator rows,
// batches and wall time, worker busy/wait, phase timings) when passed to
// CollectProfiled. A nil *Profile disables profiling at near-zero cost.
type Profile = profile.Profile

// ProfileSnapshot is the JSON-ready rendering of a Profile, as served in
// the HTTP envelope's "profile" section and the slow-query log.
type ProfileSnapshot = profile.Snapshot

// Item is one JSONiq item: an atomic value, object or array. See the
// aliased kinds (Object, Array, Str, Int, ...) for construction and
// inspection.
type Item = item.Item

// Aliases of the JSONiq data model types, so applications can construct
// and inspect items without reaching into internals.
type (
	// Object maps strings to items, preserving key order.
	Object = item.Object
	// Array is an ordered list of items.
	Array = item.Array
	// Str is a string item.
	Str = item.Str
	// Int is an integer item.
	Int = item.Int
	// Double is a floating-point item.
	Double = item.Double
	// Bool is a boolean item.
	Bool = item.Bool
	// Null is the JSON null item.
	Null = item.Null
)

// Config tunes an Engine. The zero value gives a local engine with
// defaults (4 partitions, 4 executor slots, unlimited result size).
type Config struct {
	// Parallelism is the default number of RDD/DataFrame partitions.
	Parallelism int
	// Executors bounds concurrently running partition tasks, emulating
	// the total executor cores of a cluster. The vector backend sizes its
	// morsel worker pool by the same knob, so local columnar queries scale
	// with it too.
	Executors int
	// MaxResultItems caps locally collected result sizes (0 = unlimited),
	// like Rumble's shell materialization cap.
	MaxResultItems int
	// SplitSize overrides the storage split size in bytes (0 = 8 MiB).
	SplitSize int64
	// IOLatency, when positive, simulates storage latency per 64 KiB
	// block read, for cluster-scalability experiments.
	IOLatency time.Duration
	// DisableJoin turns off the compiler's static equi-join detection so
	// nested "for ... for ... where" queries keep their nested-loop
	// evaluation; only tests set it, to compare the two.
	DisableJoin bool
	// Vectorize enables the columnar local backend: eligible FLWOR
	// pipelines (scan → filter → project → group/aggregate, order-by
	// with fused top-k, positional/count clauses, and detected hash
	// equi-joins) are compiled to Mode=Vector and execute batch-at-a-time
	// over typed columns instead of tuple-at-a-time, locally or on the
	// cluster.
	Vectorize bool
	// VerifyPlans checks every compiled plan's invariants (mode
	// annotations, vector operator whitelist, join legality) before
	// execution, surfacing compiler bugs as structured errors instead of
	// wrong results. Also enabled by RUMBLE_VERIFY_PLANS=1.
	VerifyPlans bool
	// Segments enables the columnar segment store: storage-backed scans
	// ingest (or reuse) an immutable `.segments` sibling next to each
	// JSON-Lines source and vector pipelines read decoded column batches
	// through a byte-bounded buffer pool, skipping whole segments whose
	// zone maps prove a pushed-down predicate can never match.
	Segments bool
	// SegmentCacheBytes bounds the segment buffer pool (0 = 64 MiB).
	SegmentCacheBytes int64
}

// Engine compiles and runs JSONiq queries. Engines are safe for concurrent
// use once configured; RegisterCollection calls must happen before queries
// run.
type Engine struct {
	sc  *spark.Context
	env *runtime.Env
}

// New creates an engine.
func New(cfg Config) *Engine {
	sc := spark.NewContext(spark.Config{
		Parallelism:    cfg.Parallelism,
		Executors:      cfg.Executors,
		MaxResultItems: cfg.MaxResultItems,
		IOLatency:      cfg.IOLatency,
	})
	var segs *segment.Store
	if cfg.Segments {
		segs = segment.NewStore(cfg.SegmentCacheBytes)
		segs.Workers = sc.Conf().Executors
		segs.OnReingest = func() { sc.AddSegmentReingests(1) }
		segs.OnIngest = func(st segment.IngestStats) { sc.AddSegmentIngest(st.Duration, st.Bytes) }
	}
	return &Engine{
		sc: sc,
		env: &runtime.Env{
			Spark:       sc,
			Collections: map[string]string{},
			InMemory:    map[string][]item.Item{},
			SplitSize:   cfg.SplitSize,
			NoJoin:      cfg.DisableJoin,
			Vectorize:   cfg.Vectorize,
			VerifyPlans: cfg.VerifyPlans || os.Getenv("RUMBLE_VERIFY_PLANS") == "1",
			Segments:    segs,
		},
	}
}

// RegisterCollection makes collection(name) resolve to a JSON-Lines file or
// directory of part files at path.
func (e *Engine) RegisterCollection(name, path string) {
	e.env.Collections[name] = path
}

// RegisterItems makes collection(name) resolve to an in-memory sequence.
func (e *Engine) RegisterItems(name string, items []Item) {
	e.env.InMemory[name] = items
}

// RegisterJSON parses one JSON document per input string and registers the
// resulting sequence as collection(name).
func (e *Engine) RegisterJSON(name string, docs []string) error {
	items := make([]Item, len(docs))
	for i, d := range docs {
		it, err := jparse.Parse([]byte(d))
		if err != nil {
			return fmt.Errorf("rumble: document %d: %w", i, err)
		}
		items[i] = it
	}
	e.RegisterItems(name, items)
	return nil
}

// Executors returns the number of executor slots the engine was configured
// with (after defaulting). Servers size their admission control against it.
func (e *Engine) Executors() int { return e.sc.Conf().Executors }

// Metrics returns a snapshot of the engine's cluster counters.
func (e *Engine) Metrics() spark.MetricsSnapshot { return e.sc.Metrics() }

// ResetMetrics zeroes the engine's cluster counters.
func (e *Engine) ResetMetrics() { e.sc.ResetMetrics() }

// Statement is a compiled query. Statements are safely re-executable and
// safe for concurrent use: the compiled iterator tree is immutable, every
// evaluation builds its cluster pipelines (including caches) fresh, and all
// per-run state lives on the stack of the run — so a server can compile a
// hot query once and serve it to many clients at once.
type Statement struct {
	eng  *Engine
	prog *runtime.Program
}

// Compile parses, statically checks and compiles a JSONiq query.
func (e *Engine) Compile(query string) (*Statement, error) {
	m, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	prog, err := runtime.Compile(m, e.env)
	if err != nil {
		return nil, err
	}
	return &Statement{eng: e, prog: prog}, nil
}

// Explain parses and statically analyzes a query, returning its physical
// plan as a mode-annotated tree: every expression node carries the
// execution mode ([Local], [RDD], [DataFrame] or [Vector]) the compiler
// assigned, and pushed-down aggregations are marked. The query is not
// executed.
//
//	plan, _ := eng.Explain(`count(json-file("data.jsonl"))`)
//	fmt.Print(plan)
//	// call count/1 (cluster pushdown) [Local]
//	//   call json-file/1 [RDD]
//	//     literal "data.jsonl" [Local]
func (e *Engine) Explain(query string) (string, error) {
	m, err := parser.Parse(query)
	if err != nil {
		return "", err
	}
	info, err := runtime.Analyze(m, e.env)
	if err != nil {
		return "", err
	}
	return compiler.Explain(m, info), nil
}

// Query compiles and runs a query, returning the materialized result
// sequence. Execution is parallel whenever the query's root expression
// supports RDD or DataFrame evaluation.
func (e *Engine) Query(query string) ([]Item, error) {
	st, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	return st.Collect()
}

// QueryContext is Query under a Go context: cancellation or deadline
// expiry aborts evaluation cooperatively and returns the context's error.
func (e *Engine) QueryContext(ctx context.Context, query string) ([]Item, error) {
	st, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	return st.CollectContext(ctx)
}

// QueryJSON runs a query and returns one canonical JSON string per result
// item, the way the Rumble shell prints results.
func (e *Engine) QueryJSON(query string) ([]string, error) {
	items, err := e.Query(query)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it.AppendJSON(nil))
	}
	return out, nil
}

// Collect runs the statement and materializes the whole result.
func (s *Statement) Collect() ([]Item, error) {
	return s.prog.Run()
}

// CollectContext is Collect under a Go context: loop iterators and cluster
// task loops poll ctx at cooperative checkpoints, so a cancelled or
// expired request stops evaluating promptly and returns ctx's error.
func (s *Statement) CollectContext(ctx context.Context) ([]Item, error) {
	return s.prog.RunContext(ctx)
}

// CollectContextLimit is CollectContext bounded to at most max items: the
// evaluation itself stops early (local streaming cap, or a cluster take
// action with sequential early-stopping partition scans), so a limited
// request never materializes an unbounded result on the driver. max <= 0
// means no limit.
func (s *Statement) CollectContextLimit(ctx context.Context, max int) ([]Item, error) {
	return s.prog.RunContextLimit(ctx, max)
}

// NewProfile allocates a Profile sized for this statement's plan: one
// counter set per operator the compiler registered during compilation.
func (s *Statement) NewProfile() *Profile { return s.prog.NewProfile() }

// CollectProfiled is CollectContextLimit with per-operator statistics
// recorded into prof (obtained from NewProfile). A nil prof runs exactly
// like CollectContextLimit — the instrumentation's off-path is one nil
// check per operator evaluation.
func (s *Statement) CollectProfiled(ctx context.Context, max int, prof *Profile) ([]Item, error) {
	return s.prog.RunProfiled(ctx, max, prof)
}

// ExplainAnalyze executes the statement and renders the mode-annotated
// plan tree with live per-operator statistics appended to each
// instrumented line — rows in/out, batches (morsels on the vector path)
// and inclusive wall time — followed by a result summary footer. The
// result itself is discarded; MaxResultItems bounds the materialization
// like any collected run.
func (s *Statement) ExplainAnalyze(ctx context.Context) (string, error) {
	prof := s.prog.NewProfile()
	start := time.Now()
	items, err := s.prog.RunProfiled(ctx, s.eng.sc.Conf().MaxResultItems, prof)
	if err != nil {
		return "", err
	}
	prof.ExecuteNS = int64(time.Since(start))
	snap := prof.Snapshot()
	note := func(key any) string {
		i := s.prog.OpIndex(key)
		if i < 0 || i >= len(snap.Ops) {
			return ""
		}
		op := snap.Ops[i]
		if op.Batches == 0 {
			// The operator never recorded (an uninstrumented lazy view on
			// the DataFrame path, or an early-exited stage): no annotation
			// beats a misleading out=0.
			return ""
		}
		// rows-in is derived from the input operator; hide it when that
		// operator itself never recorded.
		showIn := op.RowsIn >= 0 && op.Input >= 0 && op.Input < len(snap.Ops) && snap.Ops[op.Input].Batches > 0
		return formatOpStats(op, showIn)
	}
	plan := compiler.ExplainAnnotated(s.prog.Module(), s.prog.AnalysisInfo(), note)
	var b strings.Builder
	b.WriteString(plan)
	fmt.Fprintf(&b, "-- result: %d rows in %.2fms [%s]\n", len(items), snap.ExecuteMS, s.Mode())
	if snap.Workers > 0 {
		fmt.Fprintf(&b, "-- workers: %d (busy %.2fms, wait %.2fms)\n", snap.Workers, snap.BusyMS, snap.WaitMS)
	}
	return b.String(), nil
}

// formatOpStats renders one operator's annotation for explain-analyze.
func formatOpStats(op profile.OpStats, showIn bool) string {
	var b strings.Builder
	b.WriteString("(")
	if showIn {
		fmt.Fprintf(&b, "in=%d ", op.RowsIn)
	}
	fmt.Fprintf(&b, "out=%d", op.RowsOut)
	if op.Batches > 0 {
		fmt.Fprintf(&b, " batches=%d", op.Batches)
	}
	fmt.Fprintf(&b, " %.2fms", op.WallMS)
	if op.Note != "" {
		fmt.Fprintf(&b, "; %s", op.Note)
	}
	b.WriteString(")")
	return b.String()
}

// ExplainAnalyze compiles and profiles a query in one step. See
// Statement.ExplainAnalyze.
func (e *Engine) ExplainAnalyze(query string) (string, error) {
	st, err := e.Compile(query)
	if err != nil {
		return "", err
	}
	return st.ExplainAnalyze(context.Background())
}

// Stream runs the statement through the local streaming API, pushing items
// to yield one at a time without materializing the result.
func (s *Statement) Stream(yield func(Item) error) error {
	return s.prog.Root.Stream(s.prog.GlobalContext(), yield)
}

// StreamContext is Stream under a Go context with the same cooperative
// cancellation semantics as CollectContext.
func (s *Statement) StreamContext(ctx context.Context, yield func(Item) error) error {
	dc := s.prog.GlobalContext()
	if ctx != nil {
		dc = dc.WithGoContext(ctx)
	}
	return s.prog.Root.Stream(dc, yield)
}

// Mode returns the execution mode the compiler statically assigned to the
// statement's root expression: "Local", "RDD", "DataFrame" or "Vector".
func (s *Statement) Mode() string { return s.prog.Mode().String() }

// IsParallel reports whether the statement's root was compiled to execute
// on the cluster (RDD/DataFrame) rather than locally. The decision is
// static: it was made during compilation, not probed at run time.
func (s *Statement) IsParallel() bool { return s.prog.Mode().Parallel() }

// WriteTo executes the statement and writes the result to dir as a
// directory of JSON-Lines part files. Parallel statements write one part
// per partition directly from the executors, never materializing the
// result on the driver; local statements write a single part.
func (s *Statement) WriteTo(dir string) error {
	w, err := dfs.NewWriter(dir)
	if err != nil {
		return err
	}
	if s.IsParallel() {
		rdd, err := s.prog.Root.RDD(s.prog.GlobalContext())
		if err != nil {
			return err
		}
		lines := spark.Map(rdd, func(it item.Item) []byte { return it.AppendJSON(nil) })
		if err := writeRDDParts(w, lines); err != nil {
			return err
		}
		return w.Commit()
	}
	pw, err := w.Part(0)
	if err != nil {
		return err
	}
	if err := s.Stream(func(it Item) error {
		return pw.WriteLine(it.AppendJSON(nil))
	}); err != nil {
		pw.Close()
		return err
	}
	if err := pw.Close(); err != nil {
		return err
	}
	return w.Commit()
}

// writeRDDParts writes one part file per RDD partition, in parallel on the
// executor pool, streaming lines straight from each partition's pipeline.
func writeRDDParts(w *dfs.Writer, lines *spark.RDD[[]byte]) error {
	return spark.ForeachPartitionSink(lines, func(p int) (spark.Sink[[]byte], error) {
		pw, err := w.Part(p)
		if err != nil {
			return spark.Sink[[]byte]{}, err
		}
		return spark.Sink[[]byte]{Write: pw.WriteLine, Close: pw.Close}, nil
	})
}

// ToNative converts an item to plain Go values: nil, bool, int64, float64,
// string, []any and map[string]any (decimals convert to float64).
func ToNative(it Item) any {
	switch v := it.(type) {
	case item.Null:
		return nil
	case item.Bool:
		return bool(v)
	case item.Int:
		return int64(v)
	case item.Double:
		return float64(v)
	case item.Dec:
		return v.Float64()
	case item.Str:
		return string(v)
	case *item.Array:
		out := make([]any, v.Len())
		for i := 0; i < v.Len(); i++ {
			out[i] = ToNative(v.Member(i))
		}
		return out
	case *item.Object:
		out := make(map[string]any, v.Len())
		for i, k := range v.Keys() {
			out[k] = ToNative(v.ValueAt(i))
		}
		return out
	default:
		return nil
	}
}
