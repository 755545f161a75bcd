package rumble_test

// The paper's figures (§6, Fig. 11-15) are reproduced by cmd/benchfig and
// the engine's end-to-end and per-layer numbers by benchmark/; this file
// keeps the one ablation the latter hands off, the allocation shape of a
// group-by that partial groups cannot shrink, and the vector backend's
// bytes per round, segment-backed and raw.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rumble"
	"rumble/internal/datagen"
)

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
	path := b.TempDir()
	if err := datagen.WriteDataset(path, datagen.NewConfusionGenerator(2024), 20_000, 2); err != nil {
		b.Fatal(err)
	}
	query := fmt.Sprintf(`
		for $o in json-file(%q)
		where $o.guess eq $o.target
		group by $t := $o.target
		return { "t": $t, "n": count($o), "s": sum($o.score) }`, path)
	eng := rumble.New(rumble.Config{Parallelism: 8, Executors: 4,
		SplitSize: 256 << 10, Vectorize: true})
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

// BenchmarkGroupByDistinctKeys is the shape partial groups cannot shrink:
// a DataFrame group-by over 3,200 rows whose keys are all distinct, so
// every partial is a group of one and the shuffle ships one record per
// row, as it did before map-side folding. It carries a count-only variable
// ($o) and a sequence ($v). Its B/op is what folding costs when it saves
// nothing.
func BenchmarkGroupByDistinctKeys(b *testing.B) {
	const rows = 3200
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "{\"i\":%d,\"v\":%d}\n", i, i*7919%1000)
	}
	path := filepath.Join(b.TempDir(), "distinct.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	query := fmt.Sprintf(`for $o in json-file(%q) let $v := $o.v group by $k := $o.i return [$k, count($o), $v]`, path)
	eng := rumble.New(rumble.Config{Parallelism: 4, Executors: 2, SplitSize: 8 << 10})
	st, err := eng.Compile(query)
	if err != nil {
		b.Fatal(err)
	}
	if st.Mode() != "DataFrame" {
		b.Fatalf("mode = %s, want DataFrame", st.Mode())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		items, err := st.Collect()
		if err != nil {
			b.Fatal(err)
		}
		if len(items) != rows {
			b.Fatalf("%d groups, want %d", len(items), rows)
		}
	}
}

// BenchmarkVectorRound reports the bytes and allocations of one round of
// vector queries, the number to read when a change touches the morsel
// workers. /segment runs the six query shapes of the harness's segment
// workloads (a group-by, a string predicate, a zone-map-pruned group-by, a
// top-k, whole rows and a join) over 8,192 Reddit objects sorted by
// created_utc, on one long-lived Vectorize+Segments engine whose segments
// are ingested and resident before the timer starts. /raw runs a filter, a
// group-by and a top-k over 3,200 confusion objects with Segments off, so
// every morsel is cut from raw JSON Lines and decoded.
func BenchmarkVectorRound(b *testing.B) {
	dir := b.TempDir()
	reddit, cutoff := writeSortedReddit(b, dir, 8192)
	subs := filepath.Join(dir, "subreddits.jsonl")
	var sb strings.Builder
	for i, name := range datagen.Subreddits {
		fmt.Fprintf(&sb, "{\"name\": %q, \"rank\": %d, \"topic\": \"topic%d\"}\n", name, i+1, i%4)
	}
	if err := os.WriteFile(subs, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	confusion := filepath.Join(dir, "confusion")
	if err := datagen.WriteDataset(confusion, datagen.NewConfusionGenerator(11), 3200, 1); err != nil {
		b.Fatal(err)
	}
	b.Run("segment", func(b *testing.B) {
		eng := rumble.New(rumble.Config{Parallelism: 2, Executors: 2, Vectorize: true, Segments: true})
		runVectorRound(b, eng, []string{
			fmt.Sprintf(`for $o in json-file(%q) group by $s := $o.subreddit return {"subreddit": $s, "n": count($o), "score": sum($o.score)}`, reddit),
			fmt.Sprintf(`for $o in json-file(%q) where $o.subreddit eq "programming" and $o.score gt 1000 return {"id": $o.id, "score": $o.score}`, reddit),
			fmt.Sprintf(`for $o in json-file(%q) where $o.created_utc ge %d group by $s := $o.subreddit return {"subreddit": $s, "n": count($o), "score": sum($o.score)}`, reddit, cutoff),
			fmt.Sprintf(`for $o in json-file(%q) order by $o.score descending, $o.id ascending count $r where $r le 10 return {"id": $o.id, "score": $o.score}`, reddit),
			fmt.Sprintf(`for $o in json-file(%q) where $o.score gt 1880 return $o`, reddit),
			fmt.Sprintf(`for $o in json-file(%q) for $s in json-file(%q) where $o.subreddit eq $s.name and $o.score gt 1800 return {"id": $o.id, "rank": $s.rank, "topic": $s.topic}`, reddit, subs),
		})
	})
	b.Run("raw", func(b *testing.B) {
		eng := rumble.New(rumble.Config{Parallelism: 2, Executors: 2, Vectorize: true})
		runVectorRound(b, eng, []string{
			fmt.Sprintf(`count(for $o in json-file(%q) where $o.guess eq $o.target return $o)`, confusion),
			fmt.Sprintf(`for $o in json-file(%q) group by $c := $o.country, $t := $o.target return {"c": $c, "t": $t, "n": count($o)}`, confusion),
			fmt.Sprintf(`for $o in json-file(%q) where $o.guess eq $o.target order by $o.target ascending, $o.country descending, $o.date descending count $c where $c le 10 return {"t": $o.target, "c": $o.country, "d": $o.date}`, confusion),
		})
	})
}

// runVectorRound compiles every query once, requires each to run on the
// vector backend and to answer, runs one untimed round (a segment engine
// ingests and decodes there), then times whole rounds.
func runVectorRound(b *testing.B, eng *rumble.Engine, queries []string) {
	b.Helper()
	stmts := make([]*rumble.Statement, len(queries))
	for i, q := range queries {
		st, err := eng.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		if st.Mode() != "Vector" {
			b.Fatalf("mode = %s, want Vector\nquery: %s", st.Mode(), q)
		}
		stmts[i] = st
	}
	round := func() {
		for i, st := range stmts {
			items, err := st.Collect()
			if err != nil {
				b.Fatal(err)
			}
			if len(items) == 0 {
				b.Fatalf("empty result\nquery: %s", queries[i])
			}
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// writeSortedReddit writes n datagen Reddit objects sorted by created_utc,
// as the harness does so that zone maps prune, and returns the path and
// the created_utc that starts the newest 5%.
func writeSortedReddit(b *testing.B, dir string, n int) (string, int64) {
	b.Helper()
	gen := datagen.NewRedditGenerator(7)
	type rec struct {
		line    []byte
		created int64
	}
	recs := make([]rec, n)
	for i := range recs {
		line := gen.Next()
		var f struct {
			Created int64 `json:"created_utc"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			b.Fatal(err)
		}
		recs[i] = rec{line, f.Created}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].created < recs[j].created })
	var sb strings.Builder
	for _, r := range recs {
		sb.Write(r.line)
		sb.WriteByte('\n')
	}
	path := filepath.Join(dir, "reddit.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	return path, recs[n*95/100].created
}
