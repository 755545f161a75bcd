package rumble

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumble/internal/item"
	"rumble/internal/jparse"
)

// scanPoisonCases extend the vector corpus with queries aimed at the raw
// scan's projection: what the rule must read through (if, instance of, ||,
// [], builtin calls), what must make it give up ($o escaping through a
// function call, a constructor, a nested FLWOR, a group key), and key
// layouts a projecting decoder could get wrong (a duplicate of a read key
// after an unread one, the read key nested under an unread one).
var scanPoisonCases = []vectorConformanceCase{
	{
		name:  "duplicate of a read key after an unread one",
		query: `for $o in collection("dupread") return { "a": $o.a, "n": count($o.b.a) }`,
	},
	{
		name:  "read key also nested under unread and read keys",
		query: `for $o in collection("dupread") where $o.a instance of integer return $o.b.a`,
	},
	{
		name: "messy fields through if, instance of, concat, unbox and builtins",
		query: `for $o in collection("messy")
				let $k := if ($o.k instance of integer) then $o.k + 1 else string($o.k) || "!"
				where exists($o.v) and not(empty(($o.k, $o.v)))
				return { "k": $k, "nested": count($o.v.nested), "s": string-length(string($o.k) || "x") }`,
	},
	{
		name:  "row presence only",
		query: `count(for $o in collection("dict") return 1)`,
	},
	{
		name:  "counted whole rows after a field filter",
		query: `count(for $o in collection("dict") where $o.i ge 690 and $o.i le 1110 return $o)`,
	},
	{
		name:  "whole row escapes through a builtin call",
		query: `for $o in collection("dict") where $o.i ge 698 and $o.i le 702 return serialize($o)`,
	},
	{
		name: "whole row escapes through a user function",
		query: `declare function local:keys($x) { keys($x) };
				for $o in collection("dict") where $o.i ge 1099 and $o.i le 1102 return [ local:keys($o) ]`,
	},
	{
		name:  "whole row escapes into a constructor",
		query: `for $o in collection("dupread") return { "row": $o, "a": $o.a }`,
	},
	{
		name: "whole row escapes through a nested FLWOR",
		query: `for $o in collection("dupread")
				return (for $x in (1, 2) where $x eq 2 return { "x": $x, "row": $o })`,
	},
	{
		name:  "field read only inside a nested FLWOR",
		query: `for $o in collection("games") return (for $x in (1, 2) return $o.guess || string($x))`,
	},
	{
		name:  "whole rows as the group key",
		query: `for $o in collection("atoms") group by $o order by string($o) return { "k": $o, "n": count($o) }`,
	},
	{
		name:    "whole object rows as the group key raise",
		query:   `for $o in collection("games") group by $o return 1`,
		wantErr: true,
	},
	{
		name: "whole rows re-bound by a let, then grouped",
		query: `for $o in collection("games") let $row := $o group by $t := $o.target order by $t
				return { "t": $t, "rows": [ $row ] }`,
	},
	{
		name:  "positional variable and count clause over a projection",
		query: `for $o at $p in collection("dict") where $p ge 699 and $p le 703 count $c return [ $p, $c, $o.s ]`,
	},
}

// scanCorpus is every query the differential run covers.
func scanCorpus() []vectorConformanceCase {
	return append(append([]vectorConformanceCase{}, vectorConformanceCases...), scanPoisonCases...)
}

// sameOutcome compares one evaluation of the file-backed engine against the
// in-memory one: the same error, else the same items — in order, or as a
// multiset where the order is the shuffle's.
func sameOutcome(t *testing.T, label string, fItems, mItems []Item, fErr, mErr error, ordered bool) {
	t.Helper()
	if (fErr == nil) != (mErr == nil) {
		t.Fatalf("%s: error mismatch: file %v vs in-memory %v", label, fErr, mErr)
	}
	if fErr != nil {
		if fErr.Error() != mErr.Error() {
			t.Fatalf("%s: error selection differs\nfile:      %s\nin-memory: %s", label, fErr, mErr)
		}
		return
	}
	got, want := item.SerializeSequence(fItems), item.SerializeSequence(mItems)
	if !ordered {
		got, want = sortedLines(fItems), sortedLines(mItems)
	}
	if got != want {
		t.Fatalf("%s: results differ\nfile:\n%s\nin-memory:\n%s", label, got, want)
	}
}

// TestFileScanMatchesInMemory is the projection's end-to-end contract: a
// storage-backed scan, whose decoders build only the fields the compiler
// derived, is observationally identical to the same objects registered as
// an in-memory collection, which are decoded whole before any query exists
// and so never meet a projection. Every query of the vector corpus, the
// poison cases above and the language conformance table must agree on
// values, emit order and which error surfaces — through the local tuple
// pipeline (Stream), the DataFrame plan (Collect) and the vector backend,
// at Executors 1, 2 and 8. The file engines read 16 KiB splits, so the
// larger collections span several partitions and decoders.
func TestFileScanMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	type pair struct {
		file, mem *Engine
		workers   int
		vectorize bool
	}
	var pairs []pair
	for _, vectorize := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			file := New(Config{Parallelism: 2, Executors: w, Vectorize: vectorize, SplitSize: 16 << 10})
			mem := New(Config{Parallelism: 2, Executors: w, Vectorize: vectorize})
			segmentConformanceData(t, file, dir)
			vectorConformanceData(t, mem)
			pairs = append(pairs, pair{file: file, mem: mem, workers: w, vectorize: vectorize})
		}
	}

	for _, tc := range scanCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range pairs {
				label := fmt.Sprintf("workers=%d vectorize=%v", p.workers, p.vectorize)
				fs, err := p.file.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile (file): %v", label, err)
				}
				ms, err := p.mem.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile (in-memory): %v", label, err)
				}
				if fm, mm := fs.Mode(), ms.Mode(); fm != mm {
					t.Fatalf("%s: mode differs: file %s vs in-memory %s", label, fm, mm)
				}
				// A float sum folds in partition order outside the vector
				// backend (whose morsels cut both sources alike), and file
				// splits and parallelize partitions cut the rows differently.
				if tc.floatSum && fs.Mode() != "Vector" {
					continue
				}
				// Stream runs the root's local backend: the tuple pipeline,
				// or the vector backend on a vectorizing engine. Both scan
				// in order, so everything is pinned.
				fItems, fErr := streamAll(fs)
				mItems, mErr := streamAll(ms)
				if tc.wantErr && fErr == nil {
					t.Fatalf("%s: want an error, got none", label)
				}
				sameOutcome(t, label+" stream", fItems, mItems, fErr, mErr, true)
				// Collect runs a DataFrame-mode root on the cluster, where
				// the two sources are partitioned differently, so group
				// order is the shuffle's. Which error surfaces is not the
				// schedule's: a failing stage reports its lowest failing
				// partition, and both sources cut the rows in scan order.
				fItems, fErr = fs.Collect()
				mItems, mErr = ms.Collect()
				sameOutcome(t, label+" collect", fItems, mItems, fErr, mErr, fs.Mode() != "DataFrame")
			}
		})
	}

	t.Run("language conformance table", func(t *testing.T) {
		for name, c := range conformanceCases {
			for _, p := range pairs {
				fOut, fErr := p.file.QueryJSON(c.query)
				mOut, mErr := p.mem.QueryJSON(c.query)
				if (fErr == nil) != (mErr == nil) || strings.Join(fOut, "\n") != strings.Join(mOut, "\n") {
					t.Fatalf("%s (workers=%d vectorize=%v): file %v %v vs in-memory %v %v", name, p.workers, p.vectorize, fOut, fErr, mOut, mErr)
				}
			}
		}
	})
}

// TestScanCorpusIsProjected keeps the differential run from going vacuous:
// a floor on how many corpus plans outside the vector backend carry a
// non-empty columns line, the same plans verify, and the shapes that must
// give up do.
func TestScanCorpusIsProjected(t *testing.T) {
	eng := New(Config{Parallelism: 2, Executors: 2, VerifyPlans: true})
	segmentConformanceData(t, eng, t.TempDir())
	projected := 0
	for _, tc := range scanCorpus() {
		plan, err := eng.Explain(tc.query)
		if err != nil {
			t.Fatalf("%s: explain: %v", tc.name, err)
		}
		if strings.Contains(plan, "[Vector") {
			t.Fatalf("%s: a non-vectorizing engine compiled a vector plan:\n%s", tc.name, plan)
		}
		if _, err := eng.Compile(tc.query); err != nil {
			t.Fatalf("%s: compile under plan verification: %v", tc.name, err)
		}
		if strings.Contains(plan, "columns: ") {
			projected++
		}
	}
	// 68 of the 100 corpus queries at the time of writing; the rest are
	// joins, whole-row consumers and in-memory sources.
	const floor = 60
	if projected < floor {
		t.Errorf("%d of %d corpus plans are projected, want at least %d: the projection rule (or the corpus) regressed", projected, len(scanCorpus()), floor)
	}

	explain := func(name string) string {
		for _, tc := range scanPoisonCases {
			if tc.name == name {
				plan, err := eng.Explain(tc.query)
				if err != nil {
					t.Fatalf("%s: explain: %v", name, err)
				}
				return plan
			}
		}
		t.Fatalf("no poison case named %q", name)
		return ""
	}
	for _, name := range []string{
		"whole row escapes through a builtin call",
		"whole row escapes through a user function",
		"whole row escapes into a constructor",
		"whole row escapes through a nested FLWOR",
		"field read only inside a nested FLWOR",
		"whole rows as the group key",
		"whole rows re-bound by a let, then grouped",
	} {
		if plan := explain(name); strings.Contains(plan, "columns:") {
			t.Errorf("%s: the plan consumes its scan variable whole (or binds inside), yet is projected:\n%s", name, plan)
		}
	}
	for name, want := range map[string]string{
		"duplicate of a read key after an unread one":                      "columns: a, b",
		"messy fields through if, instance of, concat, unbox and builtins": "columns: k, v",
		"counted whole rows after a field filter":                          "columns: i",
		"positional variable and count clause over a projection":           "columns: s",
	} {
		if plan := explain(name); !strings.Contains(plan, want+"\n") {
			t.Errorf("%s: want %q in the plan:\n%s", name, want, plan)
		}
	}
}

// TestProjectedScanKeepsParseErrors plants malformed bytes in fields no
// query reads: every backend at every worker count must fail with exactly
// the error a whole-row decode of the first bad line raises — the projecting
// decoder validates what it skips — whether the query is projected or not.
func TestProjectedScanKeepsParseErrors(t *testing.T) {
	bads := map[string]string{
		"control character in an unread string":    `{"a": 3, "note": "tab` + "\t" + `here", "b": 1}`,
		"bad escape in an unread string":           `{"a": 3, "note": "\q", "b": 1}`,
		"bad literal in an unread field":           `{"a": 3, "note": nul, "b": 1}`,
		"out-of-range double in an unread field":   `{"a": 3, "note": 1e999, "b": 1}`,
		"unterminated nesting in an unread field":  `{"a": 3, "note": {"x": [1, 2}, "b": 1}`,
		"missing comma after an unread field":      `{"a": 3, "note": 1 "b": 1}`,
		"trailing bytes after the object":          `{"a": 3, "note": 1, "b": 1} {"a": 4}`,
		"duplicate read key, second one malformed": `{"a": 3, "note": 1, "a": 00x}`,
	}
	// pushdown marks the queries whose root is a cluster count action even
	// when streamed: there the later broken line sits in another partition
	// and may report first unless tasks run one at a time.
	queries := []struct {
		name, text string
		pushdown   bool
	}{
		{"projected filter", `for $o in json-file(%q) where $o.a gt 1 return $o.b`, false},
		{"projected count", `count(for $o in json-file(%q) where $o.a gt 1 return $o)`, true},
		{"projected group", `for $o in json-file(%q) group by $k := $o.a return count($o)`, false},
		{"projected sort", `for $o in json-file(%q) order by $o.b return $o.a`, false},
		{"row presence only", `count(for $o in json-file(%q) return 1)`, true},
		{"whole rows", `for $o in json-file(%q) where $o.a gt 1 return $o`, false},
	}
	dir := t.TempDir()
	for badName, bad := range bads {
		_, wantErr := jparse.Parse([]byte(bad))
		if wantErr == nil {
			t.Fatalf("%s: the planted line parses", badName)
		}
		want := "json-file: " + wantErr.Error()
		// 3000 good rows (several morsels, several 16 KiB splits), the bad
		// line, then a differently broken line that must never win.
		var sb strings.Builder
		for i := 0; i < 3000; i++ {
			fmt.Fprintf(&sb, `{"a": %d, "note": "n%d", "b": %d}`+"\n", i%5, i, i)
			if i == 1700 {
				sb.WriteString(bad + "\n")
			}
			if i == 2900 {
				sb.WriteString(`{"a": ` + "\n")
			}
		}
		path := filepath.Join(dir, strings.ReplaceAll(badName, " ", "_")+".jsonl")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, vectorize := range []bool{false, true} {
			for _, w := range []int{1, 2, 8} {
				eng := New(Config{Parallelism: 2, Executors: w, Vectorize: vectorize, SplitSize: 16 << 10})
				for _, q := range queries {
					st, err := eng.Compile(fmt.Sprintf(q.text, path))
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s / %s / workers=%d vectorize=%v", badName, q.name, w, vectorize)
					ordered := w == 1 || vectorize || !q.pushdown
					if _, err := streamAll(st); err == nil || (ordered && err.Error() != want) {
						t.Errorf("%s: stream: error %v, want %s", label, err, want)
					}
					if _, err = st.Collect(); err == nil || (w == 1 && err.Error() != want) {
						t.Errorf("%s: collect: error %v, want %s", label, err, want)
					}
				}
			}
		}
	}
}
