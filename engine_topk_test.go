package rumble

import (
	"fmt"
	"strings"
	"testing"

	"rumble/internal/item"
)

// topKEngines returns the Spark-less reference first, then the cluster
// (8 KiB splits, so a few thousand rows span several partitions) and the
// vector backend, each at Executors 1, 2 and 8.
func topKEngines() []aggregateEngine {
	local := New(Config{})
	local.env.Spark = nil
	engines := []aggregateEngine{{"spark-less", "local", local}}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines,
			aggregateEngine{fmt.Sprintf("cluster x%d", w), "cluster", New(Config{Parallelism: 4, Executors: w, SplitSize: 8 << 10})},
			aggregateEngine{fmt.Sprintf("vector x%d", w), "vector", New(Config{Executors: w, Vectorize: true})})
	}
	return engines
}

// TestTopKAgrees is the metamorphic relation of the bounded sort: "order
// by … count $c where $c le K" gives the same rows, or the same error
// text, as the same query with "where $c le K and true", which no backend
// recognizes as a bound and so sorts in full. It holds on every engine,
// for K from 0 past the row count, over duplicate keys (ties keep scan
// order), a non-atomic key and a string among number keys, both placed
// after every bound but the last two. The return either reads $c (tuple
// and DataFrame plans) or not (the vector backend's fused top-k).
func TestTopKAgrees(t *testing.T) {
	const rows = 2500
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"i":%d,"v":%d}`, i, i*7919%13)
	}
	bad := func(v string) []string {
		l := append([]string(nil), lines...)
		l[rows-7] = fmt.Sprintf(`{"i":%d,"v":%s}`, rows-7, v)
		return l
	}
	inputs := []struct{ name, path string }{
		{"clean", writeAggregateInput(t, lines)},
		{"non-atomic key", writeAggregateInput(t, bad("[1]"))},
		{"string key", writeAggregateInput(t, bad(`"x"`))},
	}
	returns := []string{`{"c": $c, "i": $o.i, "v": $o.v}`, `{"i": $o.i, "v": $o.v}`}
	engines := topKEngines()
	for _, in := range inputs {
		for _, k := range []int64{0, 1, 3, 10, rows - 1, rows, 1e15} {
			for _, ret := range returns {
				bounded := fmt.Sprintf(`for $o in json-file(%q) order by $o.v descending count $c where $c le %d return %s`, in.path, k, ret)
				full := strings.Replace(bounded, fmt.Sprintf("le %d", k), fmt.Sprintf("le %d and true", k), 1)
				want := answer(engines[0].eng, full)
				if in.name == "clean" && strings.HasPrefix(want, "error: ") {
					t.Fatalf("%s: %s", full, want)
				}
				if in.name != "clean" && !strings.HasPrefix(want, "error: ") {
					t.Fatalf("%s with a %s gave items, want an error", full, in.name)
				}
				for _, e := range engines {
					fused := e.family == "vector" && k >= 1 && !strings.Contains(ret, "$c")
					before := e.eng.Metrics().VectorTopKRuns
					if got := answer(e.eng, bounded); got != want {
						t.Errorf("%s, %s, k=%d: bounded %.200s\nwant (full sort) %.200s\nquery: %s", e.name, in.name, k, got, want, bounded)
					}
					if ran := e.eng.Metrics().VectorTopKRuns > before; ran != fused {
						t.Errorf("%s, k=%d, return %s: vector top-k ran = %v, want %v", e.name, k, ret, ran, fused)
					}
					if got := answer(e.eng, full); got != want {
						t.Errorf("%s, %s, k=%d: full sort %.200s\nwant %.200s\nquery: %s", e.name, in.name, k, got, want, full)
					}
				}
				if in.name == "clean" {
					plan := mustExplain(t, engines[1].eng, bounded)
					if want := fmt.Sprintf("order by (top %d)", min(k, 1e15)); !strings.Contains(plan, want) {
						t.Errorf("k=%d: cluster plan lacks %q:\n%s", k, want, plan)
					}
					if plan := mustExplain(t, engines[1].eng, full); strings.Contains(plan, "(top ") {
						t.Errorf("k=%d: the full sort is bounded:\n%s", k, plan)
					}
				}
			}
		}
	}
}

// TestTopKLargeBoundAgrees is the regression row for a bound far larger
// than the stream: every engine returns all 20,000 rows, in one order. A
// bounded sort that sized its storage by the bound failed the vector
// backend with "makeslice: cap out of range".
func TestTopKLargeBoundAgrees(t *testing.T) {
	const rows = 20000
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"v":%d}`, i*7919%rows)
	}
	path := writeAggregateInput(t, lines)
	q := fmt.Sprintf(`for $o in json-file(%q) order by $o.v descending count $c where $c le 1000000000000000 return $o.v`, path)
	var want string
	for _, e := range topKEngines() {
		items, err := e.eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if len(items) != rows {
			t.Fatalf("%s: %d items, want %d", e.name, len(items), rows)
		}
		got := item.SerializeSequence(items)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s: answer differs from the Spark-less engine's", e.name)
		}
	}
}
