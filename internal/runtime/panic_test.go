package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"rumble/internal/item"
	"rumble/internal/segment"
	"rumble/internal/spark"
	"rumble/internal/vector"
)

// noLeaks fails the test if goroutines it started outlive it.
func noLeaks(t *testing.T) {
	t.Helper()
	before := goruntime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the test, %d after:\n%s",
					before, goruntime.NumGoroutine(), buf[:goruntime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestVectorContainsPanics: a panic in a morsel worker (at morsel 1), in the
// scan producer (as it hands on morsel 1) or in the merge on the caller's
// goroutine (a consumer panicking in the second morsel's rows) fails only
// that evaluation with the runner's internal error, at 1, 2 and 8 workers,
// over raw JSON and over segments. No goroutine outlives the evaluation,
// and the same plan and spark.Context answer the next one correctly.
func TestVectorContainsPanics(t *testing.T) {
	noLeaks(t)
	t.Cleanup(func() { testHook = nil })
	const rows = 5 * vector.BatchSize
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, `{"v": %d}`+"\n", i)
	}
	path := filepath.Join(t.TempDir(), "p.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	query := fmt.Sprintf(`for $o in json-file(%q) where $o.v ge 0 return $o.v`, path)
	for _, segments := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			env := &Env{
				Spark:       spark.NewContext(spark.Config{Parallelism: 2, Executors: workers}),
				Collections: map[string]string{},
				Vectorize:   true,
			}
			if segments {
				env.Segments = segment.NewStore(0)
			}
			prog := compileQuery(t, env, query)
			if _, ok := prog.Root.(*vectorIter); !ok {
				t.Fatalf("root is %T, want *vectorIter", prog.Root)
			}
			for _, site := range []string{"scan", "morsel", "merge"} {
				name := fmt.Sprintf("segments=%v workers=%d %s", segments, workers, site)
				testHook = func(event string, n int) {
					if event == site && n == 1 {
						panic("boom in " + site)
					}
				}
				seen := 0
				err := prog.Root.Stream(NewDynamicContext(), func(item.Item) error {
					if seen++; site == "merge" && seen > vector.BatchSize {
						panic("boom in merge")
					}
					return nil
				})
				testHook = nil
				if err == nil || !strings.Contains(err.Error(), "internal error: panic: boom in "+site) {
					t.Fatalf("%s: err = %v, want the contained panic", name, err)
				}
				var got []item.Item
				err = prog.Root.Stream(NewDynamicContext(), func(it item.Item) error {
					got = append(got, it)
					return nil
				})
				if err != nil || len(got) != rows {
					t.Fatalf("%s: next evaluation: %d rows, err=%v; want %d rows", name, len(got), err, rows)
				}
				for i, it := range got {
					if v, ok := it.(item.Int); !ok || int64(v) != int64(i) {
						t.Fatalf("%s: next evaluation: row %d = %v, want %d", name, i, it, i)
					}
				}
			}
		}
	}
}
