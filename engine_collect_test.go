package rumble

import (
	"fmt"
	"strings"
	"testing"

	"rumble/internal/item"
	"rumble/internal/vector"
)

// collectInput writes n rows with a unique string id, a score past the
// integers Go boxes for free, a whole-number index and, on every third
// row, an "opt" field.
func collectInput(t testing.TB, n int) string {
	lines := make([]string, n)
	for i := range lines {
		opt := ""
		if i%3 == 0 {
			opt = fmt.Sprintf(`, "opt": %d`, i)
		}
		lines[i] = fmt.Sprintf(`{"id": "r%d", "score": %d, "i": %d%s}`, i, 1000+i*7919%5000, i, opt)
	}
	return writeAggregateInput(t, lines)
}

// TestVectorResultAllocs pins what collecting a vector result costs on a
// warm Vectorize+Segments engine: an object constructor's rows allocate
// the two boxed values each, since their objects and value slices are
// carved from one slab per morsel, plus a constant per morsel and per
// evaluation. A result that only one morsel contributes to comes back as
// that morsel's own slice, uncopied.
func TestVectorResultAllocs(t *testing.T) {
	if vector.Poison {
		t.Skip("a poisoning scratch drops the headers it frees")
	}
	const morsels = 4
	path := collectInput(t, morsels*vector.BatchSize-100)
	eng := New(Config{Executors: 2, Vectorize: true, Segments: true})
	collect := func(q string) func() []Item {
		st, err := eng.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		return func() []Item {
			items, err := st.Collect()
			if err != nil {
				t.Fatal(err)
			}
			return items
		}
	}

	objects := collect(fmt.Sprintf(`for $o in json-file(%q) where $o.score mod 4 eq 0 return {"id": $o.id, "score": $o.score}`, path))
	rows := len(objects()) // ingests the source and warms the pool
	if rows < morsels*vector.BatchSize/8 {
		t.Fatalf("%d result rows; the input should give about a quarter of its rows", rows)
	}
	const perMorsel, perEval = 12, 64
	got := testing.AllocsPerRun(10, func() { objects() })
	if limit := float64(2*rows + perMorsel*morsels + perEval); got > limit {
		t.Errorf("collecting %d objects over %d morsels made %v allocations, want at most %v (2 a row, %d a morsel, %d an evaluation)",
			rows, morsels, got, limit, perMorsel, perEval)
	}

	// Rows without "opt" project to the empty sequence, so the morsel's
	// slice is longer than its items: a copy would be exactly as long.
	one := collect(fmt.Sprintf(`for $o in json-file(%q) where $o.i lt 600 return $o.opt`, path))
	if items := one(); len(items) != 200 || cap(items) != 600 {
		t.Errorf("a one-morsel result of %d items has capacity %d, want 200 items in the morsel's own 600-row slice", len(items), cap(items))
	}
}

// TestVectorCollectAgrees holds Collect, which takes over each morsel's
// result slice whole, to item-by-item Stream on the vector backend: one
// morsel, many, whole rows assembled from segment lanes, a sequence-valued
// free variable that re-routes the evaluation through the tuple pipeline,
// and a top-k whose bound is far past the row count, or keeps ten whole
// rows. Every engine, at 1, 2 and 8 workers over raw JSON and segments,
// gives one answer. Under -tags vectorpoison recycled lanes are filled
// with sentinels, so a result row that aliased them would differ.
func TestVectorCollectAgrees(t *testing.T) {
	small, big := collectInput(t, 500), collectInput(t, 3*vector.BatchSize+100)
	queries := []struct{ name, q string }{
		{"one morsel", fmt.Sprintf(`for $o in json-file(%q) where $o.score mod 2 eq 0 return {"id": $o.id, "score": $o.score}`, small)},
		{"many morsels", fmt.Sprintf(`for $o in json-file(%q) where $o.score mod 3 eq 0 return {"id": $o.id, "score": $o.score}`, big)},
		{"whole rows", fmt.Sprintf(`for $o in json-file(%q) where $o.score gt 5500 return $o`, big)},
		{"sequence-valued free variable", fmt.Sprintf(`declare variable $tags := ("a", "b");
			for $o in json-file(%q) where $o.score gt 5800 return {"id": $o.id, "tags": $tags}`, big)},
		{"top-k past the row count", fmt.Sprintf(`for $o in json-file(%q) order by $o.score descending, $o.id count $c
			where $c le 1000000000000000 return {"id": $o.id, "score": $o.score}`, big)},
		{"top-k of whole rows", fmt.Sprintf(`for $o in json-file(%q) order by $o.score descending count $c where $c le 10 return $o`, big)},
	}
	want := map[string]string{}
	for _, segments := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			name := fmt.Sprintf("segments=%v x%d", segments, w)
			eng := New(Config{Parallelism: 2, Executors: w, Vectorize: true, Segments: segments})
			for _, tc := range queries {
				if plan := mustExplain(t, eng, tc.q); !strings.Contains(plan, "[Vector") {
					t.Fatalf("%s: plan is not vectorized:\n%s", tc.name, plan)
				}
				st, err := eng.Compile(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				before := eng.Metrics().VectorRuns
				collected, err := st.Collect()
				if err != nil {
					t.Fatalf("%s, %s: %v", name, tc.name, err)
				}
				ranVector := eng.Metrics().VectorRuns > before
				if fellBack := strings.HasPrefix(tc.name, "sequence-valued"); ranVector == fellBack {
					t.Errorf("%s, %s: vector run = %v, want %v", name, tc.name, ranVector, !fellBack)
				}
				streamed, err := streamAll(st)
				if err != nil {
					t.Fatalf("%s, %s: stream: %v", name, tc.name, err)
				}
				got := item.SerializeSequence(collected)
				if s := item.SerializeSequence(streamed); got != s {
					t.Errorf("%s, %s: Collect gave %d items, Stream %d; first difference at %d", name, tc.name, len(collected), len(streamed), firstDiff(got, s))
				}
				if len(collected) == 0 {
					t.Errorf("%s, %s: empty result", name, tc.name)
				}
				if w, ok := want[tc.name]; !ok {
					want[tc.name] = got
				} else if got != w {
					t.Errorf("%s, %s: answer differs from segments=false x1's", name, tc.name)
				}
			}
		}
	}
}

// firstDiff returns the first byte offset at which a and b differ.
func firstDiff(a, b string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
