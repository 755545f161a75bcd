package rumble

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// explainGoldens pins the execution-mode assignment of representative
// queries, including the paper's example shapes: the plans live in
// testdata/explain/*.golden. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestExplainGolden .
var explainGoldens = []struct {
	name  string
	query string
}{
	{"local-arith", `1 + 2 * 3`},
	{"local-flwor", `for $x in (1, 2, 3) let $y := $x * $x return $y`},
	{"rdd-source-paths", `json-file("reddit.jsonl").comments[].body`},
	{"rdd-filter-predicate", `json-file("reddit.jsonl")[$$.score gt 1500]`},
	{"rdd-union", `(json-file("a.jsonl"), json-file("b.jsonl"))`},
	{"mixed-comma-degrades", `(1, json-file("a.jsonl"))`},
	{"aggregate-pushdown", `count(for $c in json-file("reddit.jsonl")
		where $c.score gt 1500 and contains($c.body, "data")
		return $c)`},
	{"df-groupby-count", `for $o in json-file("confusion.jsonl")
		where $o.guess eq $o.target
		group by $lang := $o.target
		return { "language": $lang, "correct": count($o) }`},
	{"df-orderby-count-clause", `for $x at $i in parallelize(1 to 1000, 8)
		order by $x descending
		count $c
		return ($c, $x, $i)`},
	{"df-orderby-topk", `for $o in json-file("confusion.jsonl")
		where $o.guess eq $o.target
		order by $o.target, $o.date descending
		count $c
		where $c le 10
		return { "rank": $c, "t": $o.target }`},
	{"leading-let-local", `let $min := 100 return
		for $c in json-file("reddit.jsonl")
		where $c.score ge $min
		return $c.body`},
	{"let-rdd-cached", `let $c := json-file("confusion.jsonl")
		return { "total": count($c), "exact": count($c[$$.guess eq $$.target]) }`},
	{"let-rdd-df-head", `let $d := json-file("reddit.jsonl")
		for $x in $d
		where $x.score ge 100
		return $x.body`},
	{"prolog-udf", `declare variable $threshold := 10;
		declare function local:hot($c) { $c.score ge $threshold };
		for $c in json-file("reddit.jsonl")
		where local:hot($c)
		return $c`},
	{"distinct-if-switch", `if (exists(json-file("a.jsonl")))
		then distinct-values(json-file("a.jsonl").lang)
		else ()`},
	{"switch-try-quantified", `try {
		switch (1) case 1 case 2 return "low" default return "high"
		} catch * { every $x in (1, 2) satisfies $x gt 0 }`},
	{"join-hash", `for $o in json-file("orders.jsonl")
		for $c in json-file("customers.jsonl")
		where $o.cust eq $c.cid
		return { "oid": $o.oid, "name": $c.name }`},
	{"join-broadcast-residual", `for $o in json-file("orders.jsonl")
		for $c in parallelize(({"cid": 10, "name": "ada"}, {"cid": 11, "name": "bob"}))
		where $o.cust eq $c.cid and $o.amount gt 5
		order by $o.oid
		return { "oid": $o.oid, "name": $c.name }`},
	{"join-fallback-nested-loop", `for $o in json-file("orders.jsonl")
		for $c in json-file("customers.jsonl")
		where $o.cust eq $c.cid or $o.oid eq $c.cid
		return $o`},
}

func TestExplainGolden(t *testing.T) {
	eng := New(Config{})
	for _, tc := range explainGoldens {
		t.Run(tc.name, func(t *testing.T) {
			checkExplainGolden(t, eng, tc.name, tc.query)
		})
	}
}

// checkExplainGolden compares (or with UPDATE_GOLDEN=1 rewrites) one
// query's plan against testdata/explain/<name>.golden.
func checkExplainGolden(t *testing.T, eng *Engine, name, query string) {
	t.Helper()
	got, err := eng.Explain(query)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	path := filepath.Join("testdata", "explain", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("plan drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// vectorExplainGoldens pin backend selection under Config{Vectorize: true}:
// eligible pipelines flip to Mode=Vector (overriding both Local and
// DataFrame), ineligible shapes keep their old modes.
var vectorExplainGoldens = []struct {
	name  string
	query string
}{
	{"vector-groupby-agg", `for $o in json-file("confusion.jsonl")
		where $o.guess eq $o.target
		group by $lang := $o.target
		return { "language": $lang, "correct": count($o), "score": sum($o.score) }`},
	{"vector-filter-project", `for $c in json-file("reddit.jsonl")
		let $boost := $c.score * 2
		where $boost gt 3000 and contains($c.body, "data")
		return { "id": $c.id, "boost": $boost }`},
	{"vector-let-rdd-head", `let $d := json-file("reddit.jsonl")
		for $x in $d
		where $x.score ge 100
		return $x.body`},
	{"vector-grand-agg", `sum(for $o in json-file("confusion.jsonl")
		where $o.guess eq $o.target
		return $o.score)`},
	{"vector-orderby", `for $o in json-file("confusion.jsonl")
		order by $o.target
		return $o.target`},
	{"vector-topk", `for $o in json-file("confusion.jsonl")
		order by $o.score descending, $o.target
		count $rank where $rank le 25
		return { "t": $o.target, "s": $o.score }`},
	{"vector-join", `for $o in json-file("orders.jsonl")
		for $c in json-file("customers.jsonl")
		where $o.cust eq $c.cid
		return { "oid": $o.oid, "name": $c.name }`},
	{"vector-join-probe-filter", `for $o in json-file("orders.jsonl")
		for $c in json-file("customers.jsonl")
		where $o.cust eq $c.cid and $o.amount gt 5 and $c.vip and $o.oid lt 100
		return { "oid": $o.oid, "name": $c.name }`},
	{"vector-ineligible-orderby-after-group", `for $o in json-file("confusion.jsonl")
		group by $t := $o.target
		order by $t
		return $t`},
	{"vector-prune", `for $o in json-file("events.jsonl")
		where $o.ts ge 1700000000 and $o.kind eq "click"
		return { "ts": $o.ts, "user": $o.user }`},
}

func TestExplainVectorGolden(t *testing.T) {
	eng := New(Config{Vectorize: true})
	for _, tc := range vectorExplainGoldens {
		t.Run(tc.name, func(t *testing.T) {
			checkExplainGolden(t, eng, tc.name, tc.query)
		})
	}
}

// TestExplainVectorModesPinned asserts the vectorized mode choices in code
// so regenerated goldens cannot silently flip a backend decision. Vector
// roots carry the morsel worker-pool size (the default engine holds 4
// executor slots).
func TestExplainVectorModesPinned(t *testing.T) {
	eng := New(Config{Vectorize: true})
	wantRootMode := map[string]string{
		"vector-groupby-agg":       "[Vector x4]",
		"vector-filter-project":    "[Vector x4]",
		"vector-let-rdd-head":      "[Vector x4]",
		"vector-grand-agg":         "[Vector x4]",
		"vector-orderby":           "[Vector x4]",
		"vector-topk":              "[Vector x4]",
		"vector-join":              "[Vector x4]",
		"vector-join-probe-filter": "[Vector x4]",
		// order-by after group-by stays outside the vector grammar.
		"vector-ineligible-orderby-after-group": "[DataFrame]",
		"vector-prune":                          "[Vector x4]",
	}
	for _, tc := range vectorExplainGoldens {
		plan := mustExplain(t, eng, tc.query)
		var rootLine string
		for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
			if !strings.HasPrefix(line, " ") {
				rootLine = line
			}
		}
		if want := wantRootMode[tc.name]; !strings.HasSuffix(rootLine, want) {
			t.Errorf("%s: root %q, want mode %s", tc.name, rootLine, want)
		}
	}
	// The vectorized plans carry their physical operators: a columnar Sort,
	// a fused bounded TopK, and the hash join consumed by the vector head.
	wantOperator := map[string]string{
		"vector-orderby": "Sort",
		"vector-topk":    "TopK(25)",
		"vector-join":    "Join[hash] for $o, for $c",
		// Only the leading probe-only conjunct filters probe rows; the one
		// behind the build-reading conjunct stays residual.
		"vector-join-probe-filter": "    probe where: compare gt [Local]\n      lookup .amount [Local]\n        $o [Local]\n      literal 5 [Local]\n" +
			"    residual where: lookup .vip [Local]\n      $c [Local]\n    residual where: compare lt [Local]\n",
		// The compiler pushes the prunable where prefix onto the scan.
		"vector-prune": `zone-map prune: ts ge 1700000000 and kind eq "click"`,
	}
	for _, tc := range vectorExplainGoldens {
		want, pinned := wantOperator[tc.name]
		if !pinned {
			continue
		}
		if plan := mustExplain(t, eng, tc.query); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", tc.name, want, plan)
		}
	}
	// A fused top-k consumes its count clause: the bound lives in the
	// operator, not in a clause line.
	if plan := mustExplain(t, eng, vectorExplainGoldens[5].query); strings.Contains(plan, "count $rank") {
		t.Errorf("vector-topk: fused count clause still rendered:\n%s", plan)
	}
	// Without the option, the same aggregation query stays a DataFrame.
	plain := New(Config{})
	if plan := mustExplain(t, plain, vectorExplainGoldens[0].query); !strings.Contains(plan, "flwor [DataFrame]") {
		t.Errorf("vectorize off: aggregation query not a DataFrame plan:\n%s", plan)
	}
}

// TestExplainModesPinned asserts the headline mode of each golden query
// directly in code, so a regenerated golden cannot silently flip a mode.
func TestExplainModesPinned(t *testing.T) {
	wantRootMode := map[string]string{
		"local-arith":               "[Local]",
		"local-flwor":               "[Local]",
		"rdd-source-paths":          "[RDD]",
		"rdd-filter-predicate":      "[RDD]",
		"rdd-union":                 "[RDD]",
		"mixed-comma-degrades":      "[Local]",
		"aggregate-pushdown":        "[Local]", // scalar result; pushdown marked
		"df-groupby-count":          "[DataFrame]",
		"df-orderby-count-clause":   "[DataFrame]",
		"df-orderby-topk":           "[DataFrame]",
		"leading-let-local":         "[Local]",
		"let-rdd-cached":            "[Local]", // scalar envelope; the let binds an RDD
		"let-rdd-df-head":           "[DataFrame]",
		"prolog-udf":                "[DataFrame]",
		"distinct-if-switch":        "[RDD]",
		"switch-try-quantified":     "[Local]",
		"join-hash":                 "[DataFrame]",
		"join-broadcast-residual":   "[DataFrame]",
		"join-fallback-nested-loop": "[DataFrame]",
	}
	eng := New(Config{})
	for _, tc := range explainGoldens {
		plan, err := eng.Explain(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The root expression is the last top-level (unindented) line.
		var rootLine string
		for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
			if !strings.HasPrefix(line, " ") {
				rootLine = line
			}
		}
		if want := wantRootMode[tc.name]; !strings.HasSuffix(rootLine, want) {
			t.Errorf("%s: root %q, want mode %s", tc.name, rootLine, want)
		}
	}
	if !strings.Contains(mustExplain(t, eng, explainGoldens[6].query), "(cluster pushdown)") {
		t.Error("aggregate pushdown not marked in plan")
	}
	// A bounded sort keeps its count and where clauses: the return reads
	// the count, and the where still runs over the rows the sort keeps.
	if plan := mustExplain(t, eng, explainGoldens[9].query); !strings.Contains(plan, "order by (top 10)\n") ||
		!strings.Contains(plan, "count $c\n") {
		t.Errorf("df-orderby-topk: bounded sort or its count not rendered:\n%s", plan)
	}
}

// TestExplainJoinStrategyPinned asserts the join strategy choice of the
// join goldens in code, so a regenerated golden cannot silently change the
// physical join operator.
func TestExplainJoinStrategyPinned(t *testing.T) {
	eng := New(Config{})
	wantContains := map[string]string{
		"join-hash":               "Join[hash] for $o, for $c",
		"join-broadcast-residual": "Join[broadcast] for $o, for $c (build: right)",
	}
	for _, tc := range explainGoldens {
		want, pinned := wantContains[tc.name]
		if !pinned {
			continue
		}
		if plan := mustExplain(t, eng, tc.query); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", tc.name, want, plan)
		}
	}
	// The fallback query must keep its nested-loop shape.
	for _, tc := range explainGoldens {
		if tc.name != "join-fallback-nested-loop" {
			continue
		}
		if plan := mustExplain(t, eng, tc.query); strings.Contains(plan, "Join[") {
			t.Errorf("fallback query unexpectedly joined:\n%s", plan)
		}
	}
}

func mustExplain(t *testing.T, eng *Engine, q string) string {
	t.Helper()
	plan, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestExplainStatementModeAgree(t *testing.T) {
	// The mode Explain prints for the root must match what the compiled
	// statement actually carries.
	eng := New(Config{})
	for _, tc := range []struct {
		query string
		mode  string
	}{
		{`1 + 1`, "Local"},
		{`parallelize(1 to 10)`, "RDD"},
		{`for $x in parallelize(1 to 10) return $x`, "DataFrame"},
	} {
		st, err := eng.Compile(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if st.Mode() != tc.mode {
			t.Errorf("%s: Statement.Mode = %s, want %s", tc.query, st.Mode(), tc.mode)
		}
		if st.IsParallel() != (tc.mode != "Local") {
			t.Errorf("%s: IsParallel = %v inconsistent with mode %s", tc.query, st.IsParallel(), tc.mode)
		}
	}
}

func TestExplainParseError(t *testing.T) {
	eng := New(Config{})
	if _, err := eng.Explain(`for $x in`); err == nil {
		t.Error("Explain of a malformed query should error")
	}
	if _, err := eng.Explain(`$unbound`); err == nil {
		t.Error("Explain of a statically invalid query should error")
	}
}
