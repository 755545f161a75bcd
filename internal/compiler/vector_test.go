package compiler

import (
	"testing"

	"rumble/internal/ast"
	"rumble/internal/parser"
)

// analyzeVector parses and analyzes q with vectorization on, returning the
// mode of the module body.
func analyzeVector(t *testing.T, q string, cluster bool) Mode {
	t.Helper()
	m, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Analyze(m, Options{Cluster: cluster, Vectorize: true})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info.ModeOf(m.Body)
}

func TestVectorEligibility(t *testing.T) {
	eligible := map[string]string{
		"filter project": `for $o in json-file("d.jsonl")
			where $o.score gt 3 return { "s": $o.score }`,
		"group count": `for $o in json-file("d.jsonl")
			group by $t := $o.target return { "t": $t, "n": count($o) }`,
		"group mixed aggregates": `for $o in json-file("d.jsonl")
			group by $t := $o.target
			return { "t": $t, "n": count($o), "s": sum($o.score) }`,
		"lets and logic": `for $o in json-file("d.jsonl")
			let $b := $o.score * 2
			where $b gt 3 and $o.lang eq "fr"
			return $b`,
		"scalar builtin": `for $o in json-file("d.jsonl")
			where contains($o.body, "data") return $o.id`,
		"free variable": `declare variable $min := 3;
			for $o in json-file("d.jsonl") where $o.score ge $min return $o.score`,
		"group by existing variable": `for $o in json-file("d.jsonl")
			let $t := $o.target
			group by $t
			return { "t": $t, "n": count($o) }`,
		"cluster-bound let head": `let $d := json-file("d.jsonl")
			for $x in $d where $x.score ge 100 return $x.body`,
		"order by": `for $o in json-file("d.jsonl")
			order by $o.score return $o.score`,
		"order by descending empty greatest": `for $o in json-file("d.jsonl")
			order by $o.score descending empty greatest, $o.id return $o.id`,
		"fused top-k": `for $o in json-file("d.jsonl")
			order by $o.score descending
			count $c where $c le 10 return $o.id`,
		"positional variable": `for $o at $i in json-file("d.jsonl") return $i`,
		"count clause":        `for $o in json-file("d.jsonl") count $c return $c`,
		"count clause before filter": `for $o in json-file("d.jsonl")
			count $c where $o.score gt 3 return $c`,
		"hash equi-join": `for $o in json-file("a.jsonl")
			for $c in json-file("b.jsonl")
			where $o.k eq $c.k return $o`,
	}
	for name, q := range eligible {
		t.Run("eligible/"+name, func(t *testing.T) {
			if got := analyzeVector(t, q, true); got != ModeVector {
				t.Fatalf("mode = %s, want Vector", got)
			}
		})
	}

	ineligible := map[string]string{
		"allowing empty": `for $o allowing empty in json-file("d.jsonl") return $o`,
		"nested for without equi-predicate": `for $o in json-file("a.jsonl")
			for $c in json-file("b.jsonl")
			return [ $o, $c ]`,
		"count clause after filter": `for $o in json-file("d.jsonl")
			where $o.score gt 3 count $c return $c`,
		"clause after order by": `for $o in json-file("d.jsonl")
			order by $o.score count $c return $c`,
		"top-k bound used in return": `for $o in json-file("d.jsonl")
			order by $o.score count $c where $c le 10 return $c`,
		"general comparison": `for $o in json-file("d.jsonl")
			where $o.tags = "x" return $o`,
		"dynamic lookup key": `for $o in json-file("d.jsonl")
			return $o.($o.key)`,
		"non-whitelisted function": `for $o in json-file("d.jsonl")
			where matches($o.body, "x.*y") return $o`,
		"group var materialized outside aggregate": `for $o in json-file("d.jsonl")
			group by $t := $o.target
			return { "t": $t, "all": [ $o ] }`,
		"clause after group": `for $o in json-file("d.jsonl")
			group by $t := $o.target
			order by $t
			return $t`,
		"udf call": `declare function hot($c) { $c.score ge 3 };
			for $o in json-file("d.jsonl") where hot($o) return $o`,
	}
	for name, q := range ineligible {
		t.Run("ineligible/"+name, func(t *testing.T) {
			if got := analyzeVector(t, q, true); got == ModeVector {
				t.Fatalf("mode = Vector, want non-vector")
			}
		})
	}
}

// TestVectorWithoutCluster pins that vector eligibility does not depend on
// a cluster: a purely local pipeline still upgrades from Local to Vector.
func TestVectorWithoutCluster(t *testing.T) {
	q := `for $o in json-file("d.jsonl") where $o.score gt 3 return $o.score`
	if got := analyzeVector(t, q, false); got != ModeVector {
		t.Fatalf("mode without cluster = %s, want Vector", got)
	}
	// And without the option, nothing changes.
	m, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(m, Options{Cluster: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := info.ModeOf(m.Body); got != ModeDataFrame {
		t.Fatalf("mode with vectorize off = %s, want DataFrame", got)
	}
}

// TestVectorParallel pins that ModeVector is a local mode: the runtime
// must materialize it through Stream, never through an RDD.
func TestVectorParallel(t *testing.T) {
	if ModeVector.Parallel() {
		t.Fatal("ModeVector.Parallel() = true, want false")
	}
	if ModeVector.String() != "Vector" {
		t.Fatalf("ModeVector.String() = %q", ModeVector.String())
	}
}

// TestCompileVectorCountsPresence pins that counting the bare scan variable
// folds a constant and never reads rows whole — no hidden row slot, so a
// segment scan fetches no lane it does not read — while returning the same
// variable from an ordinary pipeline does read it whole. The annotation
// phase compiles a fold's argument with the fold as its tail, and the
// runtime's call for that tail gets the same kernels back.
func TestCompileVectorCountsPresence(t *testing.T) {
	for _, tc := range []struct {
		name, q, agg string
		wholeRows    bool
	}{
		{"grand count", `count(for $o in json-file("d.jsonl") where $o.a gt 1 return $o)`, "count", false},
		{"exists", `exists(for $o in json-file("d.jsonl") where $o.a gt 1 return $o)`, "exists", false},
		{"grouped count", `for $o in json-file("d.jsonl") group by $s := $o.s return { "s": $s, "n": count($o) }`, "", false},
		{"rows", `for $o in json-file("d.jsonl") where $o.a gt 1 return $o`, "", true},
		{"sum of rows", `sum(for $o in json-file("d.jsonl") return $o)`, "sum", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := parser.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Analyze(m, Options{Vectorize: true})
			if err != nil {
				t.Fatal(err)
			}
			f, ok := m.Body.(*ast.FLWOR)
			if !ok {
				f = m.Body.(*ast.FunctionCall).Args[0].(*ast.FLWOR)
			}
			k, err := info.CompileVector(f, tc.agg)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := info.CompileVector(f, tc.agg); again != k || k.Plan != info.VectorPlans[f] {
				t.Error("the runtime's compile is not the annotation phase's")
			}
			if got := k.RowSlot >= 0; got != tc.wholeRows {
				t.Errorf("reads rows whole = %v (RowSlot %d), want %v", got, k.RowSlot, tc.wholeRows)
			}
		})
	}
}
