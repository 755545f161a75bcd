package rumble_test

// The paper's figures (§6, Fig. 11-15) are reproduced by cmd/benchfig and
// the engine's end-to-end and per-layer numbers by benchmark/; this file
// keeps the one ablation the latter hands off.

import (
	"context"
	"fmt"
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
