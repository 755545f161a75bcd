package compiler

import (
	"slices"
	"strings"
	"testing"

	"rumble/internal/ast"
	"rumble/internal/parser"
)

// joinPlanOf analyzes src and returns the plan of the first FLWOR with a
// detected join, or nil.
func joinPlanOf(t *testing.T, src string, opts Options) *JoinPlan {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	info, err := Analyze(m, opts)
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	for _, plan := range info.Joins {
		return plan
	}
	return nil
}

const hashJoinQuery = `
	for $a in json-file("a.jsonl")
	for $b in json-file("b.jsonl")
	where $a.k eq $b.k
	return { "a": $a.v, "b": $b.v }`

func TestDetectHashJoin(t *testing.T) {
	plan := joinPlanOf(t, hashJoinQuery, Options{Cluster: true})
	if plan == nil {
		t.Fatal("equi-join not detected")
	}
	if plan.Strategy != JoinHash {
		t.Errorf("strategy = %s, want hash", plan.Strategy)
	}
	if len(plan.LeftKeys) != 1 || len(plan.RightKeys) != 1 || len(plan.Residual) != 0 {
		t.Errorf("keys/residual = %d/%d/%d, want 1/1/0",
			len(plan.LeftKeys), len(plan.RightKeys), len(plan.Residual))
	}
	if plan.Left.Var != "a" || plan.Right.Var != "b" {
		t.Errorf("join variables $%s/$%s", plan.Left.Var, plan.Right.Var)
	}
}

func TestDetectBroadcastJoin(t *testing.T) {
	q := `
		for $a in json-file("big.jsonl")
		for $b in parallelize(({"k": 1}, {"k": 2}))
		where $a.k eq $b.k
		return $a`
	plan := joinPlanOf(t, q, Options{Cluster: true})
	if plan == nil {
		t.Fatal("join not detected")
	}
	if plan.Strategy != JoinBroadcast || plan.BuildLeft {
		t.Errorf("strategy = %s buildLeft=%v, want broadcast build-right", plan.Strategy, plan.BuildLeft)
	}
	// Small side on the left broadcasts the left.
	q = `
		for $a in parallelize(({"k": 1}, {"k": 2}))
		for $b in json-file("big.jsonl")
		where $a.k eq $b.k
		return $b`
	plan = joinPlanOf(t, q, Options{Cluster: true})
	if plan == nil {
		t.Fatal("join not detected")
	}
	if plan.Strategy != JoinBroadcast || !plan.BuildLeft {
		t.Errorf("strategy = %s buildLeft=%v, want broadcast build-left", plan.Strategy, plan.BuildLeft)
	}
}

func TestDetectJoinSwappedOperandsAndConjuncts(t *testing.T) {
	q := `
		for $a in json-file("a.jsonl")
		for $b in json-file("b.jsonl")
		where $b.k eq $a.k and $a.x eq $b.y and $a.v gt 3
		return $a`
	plan := joinPlanOf(t, q, Options{Cluster: true})
	if plan == nil {
		t.Fatal("join not detected")
	}
	if len(plan.LeftKeys) != 2 {
		t.Fatalf("got %d key pairs, want 2", len(plan.LeftKeys))
	}
	// The swapped first conjunct must be normalized: LeftKeys reference $a.
	for i, k := range plan.LeftKeys {
		if !exprUsesVar(k, "a") || exprUsesVar(k, "b") {
			t.Errorf("LeftKeys[%d] does not reference only $a", i)
		}
		if !exprUsesVar(plan.RightKeys[i], "b") || exprUsesVar(plan.RightKeys[i], "a") {
			t.Errorf("RightKeys[%d] does not reference only $b", i)
		}
	}
	if len(plan.ProbeFilter) != 1 || len(plan.Residual) != 0 {
		t.Errorf("probe filter = %d, residual = %d conjuncts, want 1 ($a.v gt 3) and 0",
			len(plan.ProbeFilter), len(plan.Residual))
	}
}

// TestJoinProbeFilterIsLeadingRun pins the split of the non-key conjuncts:
// the probe filter is their leading run that does not read the right
// variable, in and-spine order, and everything from the first conjunct
// that reads it stays residual — a probe-only conjunct there included.
func TestJoinProbeFilterIsLeadingRun(t *testing.T) {
	cases := []struct {
		where               string
		wantProbe, wantRest []string
	}{
		{`$a.x gt 1 and $a.k eq $b.k and $a.y gt 2`, []string{"x", "y"}, nil},
		{`$a.k eq $b.k and $b.z gt 1 and $a.x gt 2`, nil, []string{"z", "x"}},
		{`$a.k eq $b.k and $a.x gt 1 and $b.z gt 2 and $a.y gt 3`, []string{"x"}, []string{"z", "y"}},
		{`$a.k eq $b.k and $a.x lt $b.z`, nil, []string{"x"}},
		{`$a.k eq $b.k and 1 lt 2`, []string{""}, nil},
	}
	field := func(e ast.Expr) string {
		if l, ok := e.(*ast.Comparison).L.(*ast.ObjectLookup); ok {
			return strings.Trim(string(l.Key.(*ast.Literal).Value.AppendJSON(nil)), `"`)
		}
		return ""
	}
	for _, tc := range cases {
		q := `for $a in json-file("a.jsonl") for $b in json-file("b.jsonl") where ` + tc.where + ` return $a`
		plan := joinPlanOf(t, q, Options{Cluster: true})
		if plan == nil {
			t.Fatalf("join not detected: %s", tc.where)
		}
		var probe, rest []string
		for _, e := range plan.ProbeFilter {
			probe = append(probe, field(e))
		}
		for _, e := range plan.Residual {
			rest = append(rest, field(e))
		}
		if !slices.Equal(probe, tc.wantProbe) || !slices.Equal(rest, tc.wantRest) {
			t.Errorf("%s: probe %q, residual %q; want %q, %q", tc.where, probe, rest, tc.wantProbe, tc.wantRest)
		}
	}
}

func TestJoinDetectionDeclines(t *testing.T) {
	cases := map[string]string{
		"no cluster means no join": hashJoinQuery, // run with Cluster: false below
		"non-equality predicate":   `for $a in json-file("a") for $b in json-file("b") where $a.k lt $b.k return $a`,
		"general comparison":       `for $a in json-file("a") for $b in json-file("b") where $a.k = $b.k return $a`,
		"disjunctive predicate":    `for $a in json-file("a") for $b in json-file("b") where $a.k eq $b.k or $a.v eq $b.v return $a`,
		"same-side equality":       `for $a in json-file("a") for $b in json-file("b") where $a.k eq $a.j return $a`,
		"local left side":          `for $a in (1, 2, 3) for $b in json-file("b") where $a eq $b.k return $a`,
		"local right side":         `for $a in json-file("a") for $b in (1, 2, 3) where $a.k eq $b return $a`,
		"dependent right input":    `for $a in json-file("a") for $b in json-file($a.path) where $a.k eq $b.k return $a`,
		"positional variable":      `for $a at $i in json-file("a") for $b in json-file("b") where $a.k eq $b.k return $i`,
		"allowing empty":           `for $a in json-file("a") for $b allowing empty in json-file("b") where $a.k eq $b.k return $a`,
		"where not third clause":   `for $a in json-file("a") for $b in json-file("b") let $x := 1 where $a.k eq $b.k return $x`,
		"single for is not a join": `for $a in json-file("a") where $a.k eq 3 return $a`,
		"cross product, no keys":   `for $a in json-file("a") for $b in json-file("b") where $a.v gt 3 return $b`,
		"constant-only equality":   `for $a in json-file("a") for $b in json-file("b") where 1 eq 1 return $a`,
	}
	for name, q := range cases {
		cluster := name != "no cluster means no join"
		if plan := joinPlanOf(t, q, Options{Cluster: cluster}); plan != nil {
			t.Errorf("%s: unexpectedly detected a join (%s)", name, plan.Strategy)
		}
	}
}

func TestNoJoinOptionDisablesDetection(t *testing.T) {
	if plan := joinPlanOf(t, hashJoinQuery, Options{Cluster: true, NoJoin: true}); plan != nil {
		t.Error("NoJoin option did not disable detection")
	}
}

func TestJoinKeepsDataFrameMode(t *testing.T) {
	m, info := annotateSrc(t, hashJoinQuery, true)
	if mode := info.ModeOf(m.Body); mode != ModeDataFrame {
		t.Errorf("join FLWOR mode = %s, want DataFrame", mode)
	}
	if info.Joins[m.Body.(*ast.FLWOR)] == nil {
		t.Error("join plan not keyed by the FLWOR node")
	}
}

func TestExplainRendersJoinNode(t *testing.T) {
	m, info := annotateSrc(t, hashJoinQuery, true)
	plan := Explain(m, info)
	if !strings.Contains(plan, "Join[hash] for $a, for $b") {
		t.Errorf("explain lacks the Join[hash] node:\n%s", plan)
	}
	// The consumed for/for/where clauses must not be double-rendered.
	if strings.Contains(plan, "for $a\n") || strings.Contains(plan, "where\n") {
		t.Errorf("consumed clauses still rendered:\n%s", plan)
	}
	q := `
		for $a in json-file("big.jsonl")
		for $b in parallelize(({"k": 1}, {"k": 2}))
		where $a.k eq $b.k and $a.v gt 2 and $b.k ne $a.v
		return $a`
	m2, info2 := annotateSrc(t, q, true)
	plan2 := Explain(m2, info2)
	if !strings.Contains(plan2, "Join[broadcast] for $a, for $b (build: right)") {
		t.Errorf("explain lacks the Join[broadcast] node:\n%s", plan2)
	}
	probe, res := strings.Index(plan2, "probe where: "), strings.Index(plan2, "residual where: ")
	if probe < 0 || res < probe {
		t.Errorf("explain lacks the probe filter, or the residual filter after it:\n%s", plan2)
	}
}
