package compiler

import (
	"strings"
	"testing"

	"rumble/internal/ast"
)

// scanColumnsOf returns the rendered column set of the scan plan the
// analysis recorded for q ("-" when none; the queries have one head scan),
// after checking that the plan verifies.
func scanColumnsOf(t *testing.T, q string, opts Options) string {
	t.Helper()
	m, info := analyzeQuery(t, q, opts)
	if err := Verify(m, info); err != nil {
		t.Fatalf("plan does not verify: %v\n%s", err, q)
	}
	switch len(info.ScanPlans) {
	case 0:
		return "-"
	case 1:
		for _, sp := range info.ScanPlans {
			return strings.Join(sp.Columns, ",")
		}
	}
	t.Fatalf("%d scan plans, want at most one\n%s", len(info.ScanPlans), q)
	return ""
}

// TestScanProjectionRule pins the projection rule on every execution mode's
// analysis: what qualifies, and every way of consuming the scan variable
// whole that makes it give up.
func TestScanProjectionRule(t *testing.T) {
	cases := []struct {
		name, q, want string
	}{
		{"filter and project", `for $o in json-file("d") where $o.a gt 1 return $o.b`, "a,b"},
		{"nested lookup reads the top field", `for $o in json-file("d") return $o.a.b.c`, "a"},
		{"if, instance of, concat, unbox, builtin call",
			`for $o in json-file("d")
			 let $g := if ($o.g instance of object) then $o.g.x + 1 else $o.g
			 where contains($o.s || "x", "y") and exists($o.arr[][$$ gt 1])
			 return { "g": $g, "n": count($o.m.dims[]), "first": $o.arr[[1]] }`, "arr,g,m,s"},
		{"switch, cast, treat, range, unary, simple map",
			`for $o in collection("c")
			 return (switch ($o.k) case 1 return $o.one default return -$o.other,
			         $o.n cast as string, $o.t treat as integer, 1 to $o.hi, $o.list[] ! ($$ * 2))`,
			"hi,k,list,n,one,other,t"},
		{"group by a field, count rewrite", `for $o in json-file("d") group by $k := $o.k return { "k": $k, "n": count($o) }`, "k"},
		{"grouped rows read through a field", `for $o in json-file("d") group by $k := $o.k return sum($o.v)`, "k,v"},
		{"order by, count clause, positional variable", `for $o at $p in json-file("d") order by $o.s count $c return ($p, $c, $o.t)`, "s,t"},
		{"user function over a field", `declare function local:f($x) { $x + 1 }; for $o in json-file("d") return local:f($o.a)`, "a"},
		{"second for over a field", `for $o in json-file("d") for $x in $o.items[] return $x`, "items"},
		{"row presence only", `for $o in json-file("d") return 1`, ""},
		{"count of the bare variable", `for $o in json-file("d") where count($o) eq 1 return $o.a`, "a"},
		{"allowing empty", `for $o allowing empty in json-file("d") return $o.a`, "a"},
		{"count consumes only cardinality", `count(for $o in json-file("d") where $o.a eq $o.b return $o)`, "a,b"},
		{"exists consumes only cardinality", `exists(for $o in json-file("d") where $o.a return $o)`, "a"},
		{"a counted return that is not the bare variable is read", `count(for $o in json-file("d") return $o.a)`, "a"},

		{"returns the variable", `for $o in json-file("d") where $o.a gt 1 return $o`, "-"},
		{"sum is not a presence consumer", `sum(for $o in json-file("d") return $o)`, "-"},
		{"let binds the variable", `for $o in json-file("d") let $x := $o return $x.a`, "-"},
		{"escapes through a builtin call", `for $o in json-file("d") return serialize($o)`, "-"},
		{"escapes through a user function", `declare function local:f($x) { $x.a }; for $o in json-file("d") return local:f($o)`, "-"},
		{"escapes into a constructor", `for $o in json-file("d") return { "row": $o }`, "-"},
		{"nested FLWOR", `for $o in json-file("d") return (for $x in (1, 2) return $o.a)`, "-"},
		{"quantifier", `for $o in json-file("d") where (some $x in (1, 2) satisfies $x eq $o.a) return $o.a`, "-"},
		{"try/catch", `for $o in json-file("d") return try { $o.a } catch * { 0 }`, "-"},
		{"group key is the variable", `for $o in json-file("d") group by $o return 1`, "-"},
		{"computed key", `for $o in json-file("d") let $k := "a" return $o.$k`, "-"},
		{"unboxed whole", `for $o in json-file("d") return $o[]`, "-"},
		{"predicate on the variable", `for $o in json-file("d") return $o[$$.a gt 1]`, "-"},
		{"instance of on the variable", `for $o in json-file("d") where $o instance of object return $o.a`, "-"},
		{"exists of the variable", `for $o in json-file("d") where exists($o) return $o.a`, "-"},
		{"head is not a scan", `for $o in parallelize(({"a": 1})) return $o.a`, "-"},
		{"scan bound by a let", `let $d := json-file("d") for $o in $d return $o.a`, "-"},
		{"user function shadows the source", `declare function json-file($p) { ({"a": 1}) }; for $o in json-file("d") return $o.a`, "-"},
		{"user function shadows count", `declare function count($s) { $s }; count(for $o in json-file("d") return $o)`, "-"},
	}
	for _, opts := range []Options{{}, {Cluster: true, Executors: 2}, {Cluster: true, Vectorize: true, Executors: 2}} {
		for _, c := range cases {
			if got := scanColumnsOf(t, c.q, opts); got != c.want {
				t.Errorf("%s (%+v): scan columns %q, want %q\n%s", c.name, opts, got, c.want, c.q)
			}
		}
	}
}

// TestScanProjectionSkipsJoins: a detected equi-join follows two scan
// variables, so neither side is projected; the same text evaluated as a
// nested loop (no cluster, no join detection) projects its head.
func TestScanProjectionSkipsJoins(t *testing.T) {
	q := `for $a in json-file("l") for $b in json-file("r") where $a.k eq $b.k return $a.v`
	if got := scanColumnsOf(t, q, Options{Cluster: true, Executors: 2}); got != "-" {
		t.Errorf("join: scan columns %q, want none", got)
	}
	if got := scanColumnsOf(t, q, Options{}); got != "k,v" {
		t.Errorf("nested loop: scan columns %q, want k,v", got)
	}
}

// TestScanPlanMatchesVectorPlan: where both a vector plan and a scan plan
// describe the same head, they name the same columns — one rule, two
// consumers — except under a counting consumer, where only the scan plan may
// ignore the returned variable.
func TestScanPlanMatchesVectorPlan(t *testing.T) {
	m, info := analyzeQuery(t, `for $o in json-file("d") where $o.a gt 1 group by $k := $o.k return { "k": $k, "s": sum($o.v) }`,
		Options{Cluster: true, Vectorize: true, Executors: 2})
	f := body(t, m)
	vp, sp := info.VectorPlans[f], info.ScanPlans[scanCall(t, f)]
	if vp == nil || sp == nil {
		t.Fatalf("vector plan %v, scan plan %v: want both", vp, sp)
	}
	if vp.AllColumns || strings.Join(vp.Columns, ",") != strings.Join(sp.Columns, ",") {
		t.Fatalf("vector columns %v (all=%v) differ from scan columns %v", vp.Columns, vp.AllColumns, sp.Columns)
	}

	m, info = analyzeQuery(t, `count(for $o in json-file("d") where $o.a gt 1 return $o)`,
		Options{Cluster: false, Vectorize: true, Executors: 2})
	f = m.Body.(*ast.FunctionCall).Args[0].(*ast.FLWOR)
	vp, sp = info.VectorPlans[f], info.ScanPlans[scanCall(t, f)]
	if vp == nil || !vp.AllColumns {
		t.Fatalf("vector plan %+v: want AllColumns (the plan text returns the variable)", vp)
	}
	if sp == nil || strings.Join(sp.Columns, ",") != "a" {
		t.Fatalf("scan plan %+v: want [a]", sp)
	}
}
