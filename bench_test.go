package rumble_test

// Benchmarks reproducing every figure of the paper's evaluation (§6),
// scaled to run under `go test -bench=.`:
//
//	BenchmarkFig11_*  local measurements (Rumble, Spark, Spark SQL, PySpark)
//	BenchmarkFig12_*  JSONiq engines (Rumble, Zorba-model, Xidel-model)
//	BenchmarkFig13_*  cluster measurements (more cores, bigger input)
//	BenchmarkFig14_*  speedup vs executors
//	BenchmarkFig15_*  scaling with dataset size
//	BenchmarkAblation_* design-choice ablations (group-by COUNT pushdown,
//	                  DataFrame vs local FLWOR execution)
//
// cmd/benchfig runs the same harness at larger scales and prints the
// paper-style series.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rumble"
	"rumble/internal/baselines"
	"rumble/internal/baselines/pyspark"
	"rumble/internal/baselines/rawspark"
	"rumble/internal/baselines/singlenode"
	"rumble/internal/baselines/sparksql"
	"rumble/internal/bench"
	"rumble/internal/segment"
	"rumble/internal/spark"
)

var benchBase = filepath.Join(os.TempDir(), "rumble-bench-testing")

var datasetOnce sync.Map // key string -> path

func confusionPath(b *testing.B, n int) string {
	b.Helper()
	key := fmt.Sprintf("confusion-%d", n)
	if p, ok := datasetOnce.Load(key); ok {
		return p.(string)
	}
	p, err := bench.ConfusionDataset(benchBase, n)
	if err != nil {
		b.Fatal(err)
	}
	datasetOnce.Store(key, p)
	return p
}

func redditPath(b *testing.B, n int) string {
	b.Helper()
	key := fmt.Sprintf("reddit-%d", n)
	if p, ok := datasetOnce.Load(key); ok {
		return p.(string)
	}
	p, err := bench.RedditDataset(benchBase, n)
	if err != nil {
		b.Fatal(err)
	}
	datasetOnce.Store(key, p)
	return p
}

const (
	fig11Objects = 20_000
	fig13Objects = 40_000
	benchSplit   = 256 << 10
)

func fig11Engines() []baselines.Engine {
	sc := func() *spark.Context {
		return spark.NewContext(spark.Config{Parallelism: 8, Executors: 4})
	}
	return []baselines.Engine{
		bench.NewRumble(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit}),
		rawspark.New(sc(), benchSplit),
		sparksql.New(sc(), benchSplit),
		pyspark.New(sc(), benchSplit),
	}
}

func benchEngineQuery(b *testing.B, e baselines.Engine, q baselines.Query, path string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(q, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 is the local-measurements figure: three queries, four
// engines, one machine.
func BenchmarkFig11(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	for _, q := range []baselines.Query{baselines.QueryFilter, baselines.QueryGroup, baselines.QuerySort} {
		for _, e := range fig11Engines() {
			b.Run(fmt.Sprintf("%s/%s", q, e.Name()), func(b *testing.B) {
				benchEngineQuery(b, e, q, path)
			})
		}
	}
}

// BenchmarkFig12 compares the JSONiq engines; the single-threaded models
// run with an effectively unlimited budget here (the OOM cliffs are
// exercised in the harness and unit tests, not timed).
func BenchmarkFig12(b *testing.B) {
	sizes := []int{5_000, 10_000, 20_000}
	for _, size := range sizes {
		path := confusionPath(b, size)
		engines := []baselines.Engine{
			bench.NewRumble(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit}),
			singlenode.New(singlenode.Zorba, 0),
			singlenode.New(singlenode.Xidel, 0),
		}
		for _, q := range []baselines.Query{baselines.QueryFilter, baselines.QueryGroup, baselines.QuerySort} {
			for _, e := range engines {
				b.Run(fmt.Sprintf("%s/n%d/%s", q, size, e.Name()), func(b *testing.B) {
					benchEngineQuery(b, e, q, path)
				})
			}
		}
	}
}

// BenchmarkFig13 is the cluster-measurements figure: the same engines on a
// larger input with doubled parallelism.
func BenchmarkFig13(b *testing.B) {
	path := confusionPath(b, fig13Objects)
	sc := func() *spark.Context {
		return spark.NewContext(spark.Config{Parallelism: 16, Executors: 8})
	}
	engines := []baselines.Engine{
		bench.NewRumble(rumble.Config{Parallelism: 16, Executors: 8, SplitSize: benchSplit / 2}),
		rawspark.New(sc(), benchSplit/2),
		sparksql.New(sc(), benchSplit/2),
		pyspark.New(sc(), benchSplit/2),
	}
	for _, q := range []baselines.Query{baselines.QueryFilter, baselines.QueryGroup, baselines.QuerySort} {
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", q, e.Name()), func(b *testing.B) {
				benchEngineQuery(b, e, q, path)
			})
		}
	}
}

// BenchmarkFig14 is the speedup figure: the selective Reddit filter at
// increasing executor counts; simulated storage latency lets the overlap
// exceed the physical core count as on the paper's cluster.
func BenchmarkFig14(b *testing.B) {
	path := redditPath(b, 20_000)
	for _, executors := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("executors-%d", executors), func(b *testing.B) {
			eng := rumble.New(rumble.Config{
				Parallelism: 32, Executors: executors,
				SplitSize: 64 << 10, IOLatency: time.Millisecond,
			})
			q := fmt.Sprintf(`count(for $c in json-file(%q)
				where $c.score gt 1500 and contains($c.body, "data")
				return $c)`, path)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			m := eng.Metrics()
			b.ReportMetric(m.TaskTime.Seconds()/float64(b.N), "agg-task-s/op")
		})
	}
}

// BenchmarkFig15 is the scaling figure: the filter query at growing
// replication factors; ns/op must grow linearly with size.
func BenchmarkFig15(b *testing.B) {
	base := 10_000
	for _, scale := range []int{1, 2, 4} {
		n := base * scale
		path := redditPath(b, n)
		b.Run(fmt.Sprintf("scale-%dx", scale), func(b *testing.B) {
			eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit})
			q := fmt.Sprintf(`count(for $c in json-file(%q)
				where $c.subreddit eq "programming" and $c.score gt 100
				return $c)`, path)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_GroupByCountPushdown measures the §4.7 optimization:
// a group-by whose non-grouping variable is consumed only through count()
// (pushed down to COUNT()) versus one that must materialize the variable.
func BenchmarkAblation_GroupByCountPushdown(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit})
	cases := map[string]string{
		"count-only": fmt.Sprintf(`
			for $o in json-file(%q)
			group by $t := $o.target
			return { "t": $t, "n": count($o) }`, path),
		"materialized": fmt.Sprintf(`
			for $o in json-file(%q)
			group by $t := $o.target
			return { "t": $t, "n": count($o), "first": [ $o ][[1]].country }`, path),
	}
	for name, q := range cases {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DataFrameVsLocal measures the value of the DataFrame
// execution path by running the same grouping query through the parallel
// plan and through the single-threaded local tuple pipeline.
func BenchmarkAblation_DataFrameVsLocal(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	query := fmt.Sprintf(`
		for $o in json-file(%q)
		group by $c := $o.country, $t := $o.target
		return { "c": $c, "t": $t, "n": count($o) }`, path)
	b.Run("dataframe-parallel", func(b *testing.B) {
		eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("local-tuple-stream", func(b *testing.B) {
		eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit})
		st, err := eng.Compile(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := st.Stream(func(rumble.Item) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_JoinVsNestedLoop measures the statically detected
// hash join against the nested-loop fallback across sizes. The nested
// loop's time grows quadratically with n while the join's grows linearly,
// so the speedup widens superlinearly — compare the per-size sub-benchmark
// ratios.
func BenchmarkAblation_JoinVsNestedLoop(b *testing.B) {
	for _, n := range []int{1_000, 2_000, 4_000} {
		orders, customers, err := bench.JoinDataset(benchBase, n)
		if err != nil {
			b.Fatal(err)
		}
		query := bench.JoinQuery(orders, customers)
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"hash-join", false}, {"nested-loop", true}} {
			b.Run(fmt.Sprintf("n%d/%s", n, mode.name), func(b *testing.B) {
				eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4,
					SplitSize: benchSplit, DisableJoin: mode.disable})
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := eng.Query(query)
					if err != nil {
						b.Fatal(err)
					}
					if len(res) != 1 || int(res[0].(rumble.Int)) != n {
						b.Fatalf("join returned %v, want count %d", res, n)
					}
				}
			})
		}
	}
}

// BenchmarkAblation_VectorVsLocal measures the columnar local backend
// (Mode=Vector, --vectorize) against the tuple-at-a-time local pipeline on
// the figure-style grouped-aggregation and filter workloads. Both variants
// run through the streaming API, which always executes the statically
// chosen local backend, so the comparison isolates tuple interpretation
// overhead (per-tuple slice copies, per-tuple contexts, iterator dispatch)
// against batch-at-a-time execution over typed columns.
func BenchmarkAblation_VectorVsLocal(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	queries := map[string]string{
		"group-agg": fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.guess eq $o.target
			group by $t := $o.target
			return { "t": $t, "n": count($o) }`, path),
		"filter-project": fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.guess eq $o.target
			return { "t": $o.target, "c": $o.country }`, path),
	}
	for qname, query := range queries {
		for _, mode := range []struct {
			name      string
			vectorize bool
		}{{"vector", true}, {"local-tuple", false}} {
			b.Run(fmt.Sprintf("%s/%s", qname, mode.name), func(b *testing.B) {
				eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4,
					SplitSize: benchSplit, Vectorize: mode.vectorize})
				st, err := eng.Compile(query)
				if err != nil {
					b.Fatal(err)
				}
				if mode.vectorize && st.Mode() != "Vector" {
					b.Fatalf("mode = %s, want Vector", st.Mode())
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					if err := st.Stream(func(rumble.Item) error { n++; return nil }); err != nil {
						b.Fatal(err)
					}
					if n == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// BenchmarkAblation_ParallelVectorVsVector measures morsel-driven parallel
// vector execution against the single-worker columnar path, sweeping the
// worker pool (Config.Executors) over 1/2/4/8 on the grouped-aggregation
// and filter-project workloads. As in Figure 14, simulated storage latency
// stands in for the cluster's I/O cost: the morsel workers own the scan's
// decode and its simulated round trips, so their overlap — not host core
// count — is what the sweep demonstrates, exactly the regime the paper's
// EMR measurements ran in. Recorded numbers live in
// BENCH_vector_parallel.json.
func BenchmarkAblation_ParallelVectorVsVector(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	queries := map[string]string{
		"group-agg": fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.guess eq $o.target
			group by $t := $o.target
			return { "t": $t, "n": count($o), "s": sum($o.score) }`, path),
		"filter-project": fmt.Sprintf(`
			for $o in json-file(%q)
			where $o.guess eq $o.target
			return { "t": $o.target, "c": $o.country, "s": $o.score * 2 }`, path),
	}
	for _, qname := range []string{"group-agg", "filter-project"} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", qname, workers), func(b *testing.B) {
				eng := rumble.New(rumble.Config{Parallelism: 8, Executors: workers,
					SplitSize: benchSplit, IOLatency: 2 * time.Millisecond, Vectorize: true})
				st, err := eng.Compile(queries[qname])
				if err != nil {
					b.Fatal(err)
				}
				if st.Mode() != "Vector" {
					b.Fatalf("mode = %s, want Vector", st.Mode())
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					if err := st.Stream(func(rumble.Item) error { n++; return nil }); err != nil {
						b.Fatal(err)
					}
					if n == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// BenchmarkAblation_VectorSortTopKJoin measures the columnar sort, the
// fused top-k and the vector hash join against their tuple-at-a-time
// counterparts. The top-k sweep runs the same bounded order-by three ways:
// fused into a columnar TopK operator that never materializes the tail
// (Vectorize on), as a full columnar sort of the same input (the bound
// removed, so every row is sorted and emitted), and through the tuple
// order-by + count + where pipeline (Vectorize off). The join case runs
// the count-wrapped equi-join through the vector probe pipeline and
// through the tuple hash join. Recorded numbers live in
// BENCH_vector_sort_join.json.
func BenchmarkAblation_VectorSortTopKJoin(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	topK := fmt.Sprintf(`
		for $o in json-file(%q)
		order by $o.score descending, $o.target
		count $rank
		where $rank le 25
		return { "t": $o.target, "s": $o.score }`, path)
	fullSort := fmt.Sprintf(`
		for $o in json-file(%q)
		order by $o.score descending, $o.target
		return { "t": $o.target, "s": $o.score }`, path)
	run := func(b *testing.B, query string, vectorize bool, wantN int) {
		b.Helper()
		eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4,
			SplitSize: benchSplit, Vectorize: vectorize})
		st, err := eng.Compile(query)
		if err != nil {
			b.Fatal(err)
		}
		if vectorize && st.Mode() != "Vector" {
			b.Fatalf("mode = %s, want Vector", st.Mode())
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := st.Stream(func(rumble.Item) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n != wantN {
				b.Fatalf("result rows = %d, want %d", n, wantN)
			}
		}
	}
	b.Run("topk/fused-vector", func(b *testing.B) { run(b, topK, true, 25) })
	b.Run("topk/full-sort-vector", func(b *testing.B) { run(b, fullSort, true, fig11Objects) })
	b.Run("topk/tuple", func(b *testing.B) { run(b, topK, false, 25) })

	const joinOrders = 4_000
	orders, customers, err := bench.JoinDataset(benchBase, joinOrders)
	if err != nil {
		b.Fatal(err)
	}
	joinQuery := bench.JoinQuery(orders, customers)
	b.Run("join/vector", func(b *testing.B) { run(b, joinQuery, true, 1) })
	b.Run("join/tuple-hash", func(b *testing.B) { run(b, joinQuery, false, 1) })
}

// BenchmarkAblation_ProfilingOverhead pins the cost of the per-operator
// instrumentation threaded through every backend for explain-analyze and
// the server's profile=1 mode. Three variants of the same grouped
// aggregation: the plain collection path (no profiling parameter at all),
// the profiled entry point with profiling off (nil profile — the
// production default, whose overhead budget is <3%: one nil check per
// operator evaluation), and a live profile allocated per run. CI runs
// this at -benchtime=1x to keep the instrumentation compiling and
// recording; the off-vs-plain comparison is the overhead ablation.
func BenchmarkAblation_ProfilingOverhead(b *testing.B) {
	path := confusionPath(b, fig11Objects)
	query := fmt.Sprintf(`
		for $o in json-file(%q)
		where $o.guess eq $o.target
		group by $t := $o.target
		return { "t": $t, "n": count($o), "s": sum($o.score) }`, path)
	eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4,
		SplitSize: benchSplit, Vectorize: true})
	st, err := eng.Compile(query)
	if err != nil {
		b.Fatal(err)
	}
	if st.Mode() != "Vector" {
		b.Fatalf("mode = %s, want Vector", st.Mode())
	}
	ctx := context.Background()
	run := func(b *testing.B, collect func() ([]rumble.Item, error)) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			items, err := collect()
			if err != nil {
				b.Fatal(err)
			}
			if len(items) == 0 {
				b.Fatal("empty result")
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		run(b, func() ([]rumble.Item, error) { return st.Collect() })
	})
	b.Run("profiling-off", func(b *testing.B) {
		run(b, func() ([]rumble.Item, error) { return st.CollectProfiled(ctx, 0, nil) })
	})
	b.Run("profiling-on", func(b *testing.B) {
		run(b, func() ([]rumble.Item, error) { return st.CollectProfiled(ctx, 0, st.NewProfile()) })
	})
}

// sortedScanPath writes (once) an n-row JSON-Lines dataset sorted by its
// "v" field and pre-ingests its segment sibling, so the segment-scan
// ablation never pays the one-time ingest inside a timed region.
func sortedScanPath(b *testing.B, n int) string {
	b.Helper()
	key := fmt.Sprintf("sortedscan-%d", n)
	if p, ok := datasetOnce.Load(key); ok {
		return p.(string)
	}
	dir := filepath.Join(benchBase, key)
	path := filepath.Join(dir, "data.jsonl")
	if _, err := os.Stat(path); err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, `{"g": %d, "v": %d}`+"\n", i%7, i)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := segment.OpenDataset(path); err != nil {
		if err := segment.Ingest(path); err != nil {
			b.Fatal(err)
		}
	}
	datasetOnce.Store(key, path)
	return path
}

// BenchmarkAblation_SegmentVsJSONScan measures the columnar segment store
// against the raw JSON-Lines scan it replaces, on a storage-bound grouped
// aggregation (simulated storage latency per 64 KiB block, as in the
// parallel-vector ablation). Three segment regimes bracket the design:
// cold (a fresh engine per run: every segment decodes once, charged its
// file's blocks), hot (the buffer pool already resident: no parse, no
// decode, no storage round trips), and zone-map-pruned (a selective
// predicate over the sorted field: irrelevant segments are skipped from
// metadata alone, so even a cold scan touches a fraction of the data).
// Recorded numbers live in BENCH_segment_store.json.
func BenchmarkAblation_SegmentVsJSONScan(b *testing.B) {
	const rows = 200_000
	path := sortedScanPath(b, rows)
	groupQ := fmt.Sprintf(`
		for $o in json-file(%q)
		group by $g := $o.g
		return { "g": $g, "n": count($o), "s": sum($o.v) }`, path)
	prunedQ := fmt.Sprintf(`
		for $o in json-file(%q)
		where $o.v ge %d
		group by $g := $o.g
		return { "g": $g, "n": count($o), "s": sum($o.v) }`, path, rows-rows/20)

	newEng := func(segments bool) *rumble.Engine {
		return rumble.New(rumble.Config{Parallelism: 8, Executors: 4, SplitSize: benchSplit,
			IOLatency: 2 * time.Millisecond, Vectorize: true, Segments: segments})
	}
	run := func(b *testing.B, eng *rumble.Engine, query string) {
		b.Helper()
		st, err := eng.Compile(query)
		if err != nil {
			b.Fatal(err)
		}
		if st.Mode() != "Vector" {
			b.Fatalf("mode = %s, want Vector", st.Mode())
		}
		n := 0
		if err := st.Stream(func(rumble.Item) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("empty result")
		}
	}
	b.Run("group-agg/json-scan", func(b *testing.B) {
		eng := newEng(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, eng, groupQ)
		}
	})
	b.Run("group-agg/segment-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, newEng(true), groupQ) // fresh buffer pool every run
		}
	})
	b.Run("group-agg/segment-hot", func(b *testing.B) {
		eng := newEng(true)
		run(b, eng, groupQ) // populate the buffer pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, eng, groupQ)
		}
	})
	b.Run("pruned/json-scan", func(b *testing.B) {
		eng := newEng(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, eng, prunedQ)
		}
	})
	b.Run("pruned/segment-zonemap", func(b *testing.B) {
		// Cold engine per run, like segment-cold: the point is that zone
		// maps spare the decode itself, not just the re-read.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := newEng(true)
			run(b, eng, prunedQ)
			if m := eng.Metrics(); m.SegmentsSkipped == 0 {
				b.Fatal("no segments skipped — zone-map pruning never engaged")
			}
		}
	})
}

// BenchmarkQueryCompilation isolates the frontend: lexing, parsing, static
// analysis and iterator construction of a realistic query.
func BenchmarkQueryCompilation(b *testing.B) {
	eng := rumble.New(rumble.Config{})
	query := `
	for $person in parallelize(())
	where $person.age le 65
	group by $pos := $person.position
	let $count := count($person)
	order by $count descending
	return { "position" : $pos, "count" : $count }`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile(query); err != nil {
			b.Fatal(err)
		}
	}
}
