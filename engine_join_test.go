package rumble

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rumble/internal/item"
)

// nestedLoop turns off e's static equi-join detection, so nested "for ...
// for ... where" queries keep their nested-loop evaluation: the reference a
// detected join must agree with.
func nestedLoop(e *Engine) *Engine {
	e.env.NoJoin = true
	return e
}

// joinTestEngine returns an engine loaded with two small collections that
// exercise matches, multiplicity, misses, null keys and missing keys.
func joinTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.RegisterJSON("orders", []string{
		`{"oid": 1, "cust": 10, "amount": 5}`,
		`{"oid": 2, "cust": 11, "amount": 7}`,
		`{"oid": 3, "cust": 10, "amount": 9}`,
		`{"oid": 4, "cust": 99, "amount": 1}`,
		`{"oid": 5, "cust": null, "amount": 2}`,
		`{"oid": 6, "amount": 3}`,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterJSON("customers", []string{
		`{"cid": 10, "name": "ada"}`,
		`{"cid": 11, "name": "bob"}`,
		`{"cid": 12, "name": "cyd"}`,
		`{"cid": null, "name": "nil"}`,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

const joinQuery = `
	for $o in collection("orders")
	for $c in collection("customers")
	where $o.cust eq $c.cid
	return { "oid": $o.oid, "name": $c.name }`

// wantJoin is the nested-loop ground truth for joinQuery: null eq null is
// true in JSONiq, so order 5 matches customer "nil"; order 6 has no cust
// field (empty key) and order 4 no matching customer.
var wantJoin = []string{
	`{"oid" : 1, "name" : "ada"}`,
	`{"oid" : 2, "name" : "bob"}`,
	`{"oid" : 3, "name" : "ada"}`,
	`{"oid" : 5, "name" : "nil"}`,
}

func sortedRun(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	out := run(t, e, q)
	sort.Strings(out)
	return out
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	joined := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	nested := nestedLoop(joinTestEngine(t, Config{Parallelism: 4, Executors: 4}))
	if plan := mustExplain(t, joined, joinQuery); !strings.Contains(plan, "Join[hash]") {
		t.Fatalf("hash join not chosen:\n%s", plan)
	}
	if plan := mustExplain(t, nested, joinQuery); strings.Contains(plan, "Join[") {
		t.Fatalf("nested-loop engine still joins:\n%s", plan)
	}
	got := sortedRun(t, joined, joinQuery)
	want := sortedRun(t, nested, joinQuery)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hash join diverges from nested loop:\ngot  %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(want, wantJoin) {
		t.Errorf("nested-loop baseline drifted:\ngot  %v\nwant %v", want, wantJoin)
	}
}

func TestBroadcastJoinMatchesNestedLoop(t *testing.T) {
	// The small side is a parallelize() literal, so the compiler picks the
	// broadcast strategy; results must match the nested loop exactly.
	q := `
		for $o in collection("orders")
		for $c in parallelize(({"cid": 10, "name": "ada"}, {"cid": 11, "name": "bob"}))
		where $o.cust eq $c.cid
		return { "oid": $o.oid, "name": $c.name }`
	joined := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	nested := nestedLoop(joinTestEngine(t, Config{Parallelism: 4, Executors: 4}))
	if plan := mustExplain(t, joined, q); !strings.Contains(plan, "Join[broadcast]") {
		t.Fatalf("broadcast join not chosen:\n%s", plan)
	}
	got := sortedRun(t, joined, q)
	want := sortedRun(t, nested, q)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("broadcast join diverges:\ngot  %v\nwant %v", got, want)
	}
	if m := joined.Metrics(); m.BroadcastRecords == 0 {
		t.Error("broadcast join reported no broadcast records")
	}
	// Broadcast with the small side on the left preserves semantics too.
	qLeft := `
		for $c in parallelize(({"cid": 10, "name": "ada"}, {"cid": 11, "name": "bob"}))
		for $o in collection("orders")
		where $o.cust eq $c.cid
		return { "oid": $o.oid, "name": $c.name }`
	if plan := mustExplain(t, joined, qLeft); !strings.Contains(plan, "Join[broadcast] for $c, for $o (build: left)") {
		t.Fatalf("left-build broadcast join not chosen:\n%s", plan)
	}
	got = sortedRun(t, joined, qLeft)
	want = sortedRun(t, nested, qLeft)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("left-build broadcast join diverges:\ngot  %v\nwant %v", got, want)
	}
}

func TestJoinResidualPredicateAndMultipleKeys(t *testing.T) {
	q := `
		for $o in collection("orders")
		for $c in collection("customers")
		where $c.cid eq $o.cust and $o.amount gt 5
		return { "oid": $o.oid, "name": $c.name }`
	joined := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	nested := nestedLoop(joinTestEngine(t, Config{Parallelism: 4, Executors: 4}))
	got := sortedRun(t, joined, q)
	want := sortedRun(t, nested, q)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("residual join diverges:\ngot  %v\nwant %v", got, want)
	}
	if len(got) != 2 { // orders 2 (amount 7) and 3 (amount 9)
		t.Errorf("residual filter kept %d rows, want 2: %v", len(got), got)
	}
	// Two key pairs must both constrain the match.
	q2 := `
		for $a in parallelize(({"x": 1, "y": "u"}, {"x": 1, "y": "v"}))
		for $b in parallelize(({"x": 1, "y": "u", "tag": "m1"}, {"x": 2, "y": "u", "tag": "m2"}))
		where $a.x eq $b.x and $a.y eq $b.y
		return $b.tag`
	e := New(Config{Parallelism: 2, Executors: 2})
	if got := run(t, e, q2); !reflect.DeepEqual(got, []string{`"m1"`}) {
		t.Errorf("multi-key join got %v, want [\"m1\"]", got)
	}
}

func TestJoinLocalStreamMatchesClusterCollect(t *testing.T) {
	// The same compiled statement must produce identical rows through the
	// local streaming API (joinEval) and the cluster path (JoinByKey).
	e := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	st, err := e.Compile(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	if err := st.Stream(func(it Item) error {
		streamed = append(streamed, string(it.AppendJSON(nil)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	collected, err := e.QueryJSON(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(streamed)
	sort.Strings(collected)
	if !reflect.DeepEqual(streamed, collected) {
		t.Errorf("stream vs collect:\nstream  %v\ncollect %v", streamed, collected)
	}
	// The local stream preserves nested-loop (left-major) order exactly.
	var ordered []string
	if err := st.Stream(func(it Item) error {
		ordered = append(ordered, string(it.AppendJSON(nil)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ordered, wantJoin) {
		t.Errorf("local join order:\ngot  %v\nwant %v", ordered, wantJoin)
	}
}

func TestJoinHeterogeneousKeyTypesError(t *testing.T) {
	e := New(Config{Parallelism: 2, Executors: 2})
	if err := e.RegisterJSON("l", []string{`{"k": 1}`, `{"k": "s"}`}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterJSON("r", []string{`{"k": 2}`}); err != nil {
		t.Fatal(err)
	}
	q := `for $a in collection("l") for $b in collection("r") where $a.k eq $b.k return $a`
	if _, err := e.Query(q); err == nil {
		t.Error("mixed string/number join keys must error like the nested loop's eq")
	}
	nested := nestedLoop(New(Config{Parallelism: 2, Executors: 2}))
	nested.RegisterItems("l", mustItems(t, e, "l"))
	nested.RegisterItems("r", mustItems(t, e, "r"))
	if _, err := nested.Query(q); err == nil {
		t.Error("nested loop baseline should error on mixed key types")
	}
}

func mustItems(t *testing.T, e *Engine, name string) []Item {
	t.Helper()
	items, err := e.Query(fmt.Sprintf("collection(%q)", name))
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func TestJoinLargeIntegerKeysStayExact(t *testing.T) {
	// 2^53 and 2^53+1 collapse to the same float64; the exact integer sort
	// key path must keep them apart in join buckets.
	e := New(Config{Parallelism: 2, Executors: 2})
	q := `
		for $a in parallelize(({"k": 9007199254740992, "v": "lo"}, {"k": 9007199254740993, "v": "hi"}))
		for $b in parallelize(({"k": 9007199254740993, "tag": "match"}))
		where $a.k eq $b.k
		return $a.v`
	if got := run(t, e, q); !reflect.DeepEqual(got, []string{`"hi"`}) {
		t.Errorf("large-int join matched %v, want [\"hi\"]", got)
	}
}

func TestJoinFallbackStillWorks(t *testing.T) {
	// A disjunctive predicate declines detection and must keep the
	// (correct) nested-loop answers.
	q := `
		for $o in collection("orders")
		for $c in collection("customers")
		where $o.cust eq $c.cid or $o.oid eq $c.cid
		return { "oid": $o.oid, "name": $c.name }`
	e := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	if plan := mustExplain(t, e, q); strings.Contains(plan, "Join[") {
		t.Fatalf("disjunctive predicate should not join:\n%s", plan)
	}
	nested := nestedLoop(joinTestEngine(t, Config{Parallelism: 4, Executors: 4}))
	if !reflect.DeepEqual(sortedRun(t, e, q), sortedRun(t, nested, q)) {
		t.Error("fallback results diverge from nested loop")
	}
}

func TestJoinDownstreamClausesStillApply(t *testing.T) {
	// group-by, order-by and count after a join consume the joined tuples.
	q := `
		for $o in collection("orders")
		for $c in collection("customers")
		where $o.cust eq $c.cid
		group by $n := $c.name
		order by $n ascending
		count $i
		return { "i": $i, "name": $n, "orders": count($o) }`
	e := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	nested := nestedLoop(joinTestEngine(t, Config{Parallelism: 4, Executors: 4}))
	got := run(t, e, q)
	want := run(t, nested, q)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("join + downstream clauses:\ngot  %v\nwant %v", got, want)
	}
	wantRows := []string{
		`{"i" : 1, "name" : "ada", "orders" : 2}`,
		`{"i" : 2, "name" : "bob", "orders" : 1}`,
		`{"i" : 3, "name" : "nil", "orders" : 1}`,
	}
	if !reflect.DeepEqual(got, wantRows) {
		t.Errorf("join + group/order/count:\ngot  %v\nwant %v", got, wantRows)
	}
}

func TestJoinShuffleMetricsReported(t *testing.T) {
	e := joinTestEngine(t, Config{Parallelism: 4, Executors: 4})
	e.ResetMetrics()
	if _, err := e.Query(joinQuery); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.ShuffleRecords == 0 {
		t.Error("shuffle hash join reported no shuffled records")
	}
}

func TestJoinNonIntegerDecimalKeyDoesNotMatchInteger(t *testing.T) {
	// Dec(2^53 + 0.5) rounds to the same float64 as Int(2^53); the join
	// bucket must still keep them apart, agreeing with the nested loop's
	// exact eq.
	q := `
		for $a in parallelize(({"k": 9007199254740992.5, "v": "dec"}))
		for $b in parallelize(({"k": 9007199254740992}))
		where $a.k eq $b.k
		return $a.v`
	for _, disable := range []bool{false, true} {
		e := New(Config{Parallelism: 2, Executors: 2})
		e.env.NoJoin = disable
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		if len(got) != 0 {
			t.Errorf("disable=%v: decimal key falsely matched integer: %v", disable, got)
		}
	}
}

func TestJoinEmptyProbeSideSkipsBuildErrors(t *testing.T) {
	// With an empty left input the nested loop never evaluates the right
	// side's keys; the local join path must not either, even when a right
	// key is malformed (non-atomic).
	q := `
		for $a in parallelize(())
		for $b in parallelize(({"k": [1, 2]}))
		where $a.k eq $b.k
		return $a`
	e := New(Config{Parallelism: 2, Executors: 2})
	st, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := st.Stream(func(Item) error { n++; return nil }); err != nil {
		t.Fatalf("local join path evaluated the build side of an empty probe: %v", err)
	}
	if n != 0 {
		t.Errorf("empty probe side yielded %d rows", n)
	}
}

// joinProbeFilterCases pin the join's probe filter — the leading where
// conjuncts that read only the probe variable, which the vector probe tests
// once per matched probe row before it expands — to the nested loop's
// answers and errors.
// They run in the vector corpus too (vectorConformanceCases).
var joinProbeFilterCases = []vectorConformanceCase{
	{
		name: "join probe filter erring only on an unmatched row",
		query: `for $p in collection("pfprobe")
				for $b in collection("pfbuild")
				where $p.k eq $b.k and 10 idiv $p.u gt 1
				return { "id": $p.id, "w": $b.w }`,
		wantMode: "Vector",
	},
	{
		name: "join probe filter erring on a matched row",
		query: `for $p in collection("pfprobe")
				for $b in collection("pfbuild")
				where $p.k eq $b.k and 10 idiv $p.d gt 1
				return { "id": $p.id, "w": $b.w }`,
		wantMode:  "Vector",
		wantErr:   true,
		wantErrIn: "division by zero",
	},
	{
		name: "join key conflict on a row the probe filter drops",
		query: `for $p in collection("pfprobe")
				for $b in collection("pfbuild")
				where $p.m eq $b.k and $p.flag
				return { "id": $p.id, "w": $b.w }`,
		wantMode:  "Vector",
		wantErr:   true,
		wantErrIn: "non-comparable",
	},
	{
		name: "join probe-only conjunct behind a build-reading one stays residual",
		query: `for $p in collection("pfprobe")
				for $b in collection("pfbuild")
				where $p.k eq $b.k and $b.z gt 0 and 10 idiv $p.d gt 1
				return { "id": $p.id, "w": $b.w }`,
		wantMode: "Vector",
	},
	{
		name: "join probe filter conjunct erring on a row an earlier one drops",
		query: `for $p in collection("pfprobe")
				for $b in collection("pfbuild")
				where $p.k eq $b.k and $p.flag and 10 idiv $p.d gt 1
				return { "id": $p.id, "w": $b.w }`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel join with a two-conjunct probe filter",
		query: `for $o in collection("wide")
				for $d in collection("dims")
				where $o.g eq $d.g and $o.v mod 3 eq 0 and $o.v lt 4000
				return { "v": $o.v, "name": $d.name }`,
		wantMode: "Vector",
	},
}

// joinOutcome is one evaluation's items as sorted JSON lines, or its error.
func joinOutcome(items []Item, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return sortedLines(items)
}

// TestJoinProbeFilterConformance holds every probe-filter case to the
// nested loop (nestedLoop) on the Spark-less engine and, at Executors 1, 2
// and 8, the cluster engine (Collect runs the DataFrame join, Stream the
// local one), the vector engine and the vector engine over segments:
// the same items, or the same error text. The one rewording is the key
// type conflict, which the join raises naming the key.
func TestJoinProbeFilterConformance(t *testing.T) {
	dir := t.TempDir()
	engine := func(cfg Config) *Engine {
		e := New(cfg)
		segmentConformanceData(t, e, dir)
		return e
	}
	nested := nestedLoop(engine(Config{Parallelism: 2, Executors: 2}))
	type named struct {
		name   string
		eng    *Engine
		vector bool
	}
	sparkless := engine(Config{})
	sparkless.env.Spark = nil
	engines := []named{{"spark-less", sparkless, false}}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines,
			named{fmt.Sprintf("cluster x%d", w), engine(Config{Parallelism: 2, Executors: w}), false},
			named{fmt.Sprintf("vector x%d", w), engine(Config{Parallelism: 2, Executors: w, Vectorize: true}), true},
			named{fmt.Sprintf("vector+segments x%d", w), engine(Config{Parallelism: 2, Executors: w, Vectorize: true, Segments: true}), true})
	}
	for _, tc := range joinProbeFilterCases {
		t.Run(tc.name, func(t *testing.T) {
			if plan := mustExplain(t, nested, tc.query); strings.Contains(plan, "Join[") {
				t.Fatalf("nested-loop engine still joins:\n%s", plan)
			}
			want := joinOutcome(nested.Query(tc.query))
			if tc.wantErr != strings.HasPrefix(want, "error: ") || want == "" {
				t.Fatalf("nested loop: %q", want)
			}
			for _, e := range engines {
				st, err := e.eng.Compile(tc.query)
				if err != nil {
					t.Fatalf("%s: compile: %v", e.name, err)
				}
				if e.vector && st.Mode() != tc.wantMode {
					t.Fatalf("%s: mode %s, want %s", e.name, st.Mode(), tc.wantMode)
				}
				runs := map[string]string{"collect": joinOutcome(st.Collect())}
				if !e.vector {
					runs["stream"] = joinOutcome(streamAll(st))
				}
				for how, got := range runs {
					if got != want && !(tc.wantErrIn == "non-comparable" &&
						strings.Contains(got, "mixes non-comparable types") && strings.Contains(want, item.ErrNonComparable.Error())) {
						t.Errorf("%s %s:\n%s\nnested loop:\n%s", e.name, how, got, want)
					}
				}
			}
		})
	}
}
