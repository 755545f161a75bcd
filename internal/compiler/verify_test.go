package compiler

import (
	"strings"
	"testing"

	"rumble/internal/ast"
	"rumble/internal/item"
	"rumble/internal/parser"
)

// analyzeQuery parses and analyzes one query, failing the test on either
// static error — the corruption tests need a valid plan to start from.
func analyzeQuery(t *testing.T, q string, opts Options) (*ast.Module, *Info) {
	t.Helper()
	m, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, q)
	}
	info, err := Analyze(m, opts)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, q)
	}
	return m, info
}

func body(t *testing.T, m *ast.Module) *ast.FLWOR {
	t.Helper()
	f, ok := m.Body.(*ast.FLWOR)
	if !ok {
		t.Fatalf("module body is %T, want *ast.FLWOR", m.Body)
	}
	return f
}

const vectorTopKQuery = `for $x in (1 to 100) order by $x descending count $c where $c le 10 return $x`

// topKQuery is a bounded sort whose return reads the count, so no backend
// fuses the count away.
const topKQuery = `for $x in (1 to 100) order by $x descending count $c where $c lt 11 return ($c, $x)`

// orderBy returns the order-by clause of f.
func orderBy(t *testing.T, f *ast.FLWOR) *ast.OrderByClause {
	t.Helper()
	for _, cl := range f.Clauses {
		if ob, ok := cl.(*ast.OrderByClause); ok {
			return ob
		}
	}
	t.Fatal("FLWOR has no order-by clause")
	return nil
}

const joinQuery = `for $a in parallelize(({"k": 1, "v": "x"}, {"k": 2, "v": "y"}))
for $b in parallelize(({"k": 2, "w": "p"}))
where $a.k eq $b.k
return $a.v || $b.w`

// vectorJoinQuery is joinQuery with a return the vector backend compiles.
const vectorJoinQuery = `for $a in parallelize(({"k": 1, "v": "x"}, {"k": 2, "v": "y"}))
for $b in parallelize(({"k": 2, "w": "p"}))
where $a.k eq $b.k
return {"v": $a.v, "w": $b.w}`

// TestVerifyCleanPlans pins that Verify accepts what Analyze produces
// across every backend the compiler can choose.
func TestVerifyCleanPlans(t *testing.T) {
	queries := []struct {
		name string
		q    string
		opts Options
	}{
		{"local scalar", `1 + 2`, Options{}},
		{"local flwor", `for $x in (1, 2, 3) where $x gt 1 return $x * 2`, Options{}},
		{"dataframe", `for $x in parallelize((1, 2, 3)) return $x`, Options{Cluster: true}},
		{"rdd predicate", `parallelize((1, 2, 3))[$$ gt 1]`, Options{Cluster: true}},
		{"join", joinQuery, Options{Cluster: true}},
		{"vector pipeline", `for $x in (1 to 50) where $x mod 2 eq 0 return {"v": $x}`, Options{Vectorize: true}},
		{"vector group", `for $x in (1 to 50) group by $k := $x mod 3 return count($x)`, Options{Vectorize: true}},
		{"vector topk", vectorTopKQuery, Options{Vectorize: true}},
		{"topk", topKQuery, Options{}},
		{"topk nested in a udf", `declare function local:top($n) { for $x in (1 to $n) order by $x count $c where 3 gt $c return $x }; local:top(9)`, Options{}},
		{"vector grand aggregate", `sum(for $x in (1 to 50) where $x gt 10 return $x)`, Options{Vectorize: true}},
		{"vector count zero", `count(for $x in (1 to 50) where $x gt 100 return $x) eq 0`, Options{Vectorize: true}},
		{"vector join", joinQuery, Options{Cluster: true, Vectorize: true}},
		{"vector hash join", vectorJoinQuery, Options{Cluster: true, Vectorize: true}},
		{"udf and globals", `declare variable $n := 3; declare function local:sq($x) { $x * $x }; local:sq($n)`, Options{}},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			m, info := analyzeQuery(t, tc.q, tc.opts)
			if err := Verify(m, info); err != nil {
				t.Fatalf("clean plan rejected: %v", err)
			}
		})
	}
}

// TestVerifyCorruptedPlans hand-corrupts valid analysis results the way a
// compiler bug would and demands the named diagnostic code for each.
func TestVerifyCorruptedPlans(t *testing.T) {
	cases := []struct {
		name     string
		q        string
		opts     Options
		corrupt  func(t *testing.T, m *ast.Module, info *Info)
		wantCode string
		// wantAt, when set, names the expression the diagnostic must point
		// at, not only its code.
		wantAt func(t *testing.T, m *ast.Module) ast.Expr
	}{
		{
			name: "erased mode annotation",
			q:    `1 + 2`,
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				delete(info.Modes, m.Body)
			},
			wantCode: "mode-unannotated",
		},
		{
			name: "predicate mode contradicts input",
			q:    `(1 to 5)[$$ gt 3]`,
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.Modes[m.Body] = ModeRDD
			},
			wantCode: "mode-child",
		},
		{
			name: "rdd predicate demoted to local",
			q:    `parallelize((1, 2, 3))[$$ gt 1]`,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.Modes[m.Body] = ModeLocal
			},
			wantCode: "mode-child",
		},
		{
			name: "dataframe head input not parallel",
			q:    `for $x in parallelize((1, 2, 3)) return $x`,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				head := body(t, m).Clauses[0].(*ast.ForClause)
				info.Modes[head.In] = ModeLocal
			},
			wantCode: "mode-dataframe-head",
		},
		{
			name: "vector mode without plan",
			q:    `for $x in (1 to 50) where $x gt 2 return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				delete(info.VectorPlans, body(t, m))
			},
			wantCode: "vector-plan-missing",
		},
		{
			name: "vector plan on non-vector mode",
			q:    `for $x in (1 to 50) where $x gt 2 return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.Modes[m.Body] = ModeLocal
			},
			wantCode: "vector-plan-orphan",
		},
		{
			name: "non-whitelisted call in vector pipeline",
			q:    `for $x in (1 to 50) where $x gt 2 return string($x)`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				body(t, m).Return.(*ast.FunctionCall).Name = "serialize"
			},
			wantCode: "vector-operator",
		},
		{
			name: "zero top-k bound",
			q:    vectorTopKQuery,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.VectorPlans[body(t, m)].TopK = 0
			},
			wantCode: "vector-topk",
		},
		{
			name: "top-k bound disagrees with AST",
			q:    vectorTopKQuery,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.VectorPlans[body(t, m)].TopK = 3
			},
			wantCode: "vector-topk",
		},
		{
			name: "top-k bound disagrees with AST",
			q:    topKQuery,
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				if k := info.TopK[orderBy(t, body(t, m))]; k != 10 {
					t.Fatalf("recorded top-k %d, want 10", k)
				}
				info.TopK[orderBy(t, body(t, m))] = 3
			},
			wantCode: "topk",
		},
		{
			name: "top-k bound dropped",
			q:    topKQuery,
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				delete(info.TopK, orderBy(t, body(t, m)))
			},
			wantCode: "topk",
		},
		{
			name: "top-k bound on an unbounded order by",
			q:    `for $x in (1 to 100) order by $x count $c where $c le 10 and true return $x`,
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.TopK[orderBy(t, body(t, m))] = 10
			},
			wantCode: "topk",
		},
		{
			name: "top-k bound on a clause outside the module",
			q:    topKQuery,
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.TopK[&ast.OrderByClause{}] = 1
			},
			wantCode: "topk",
		},
		{
			name: "join with no key pairs",
			q:    joinQuery,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				jp := info.Joins[body(t, m)]
				jp.LeftKeys, jp.RightKeys = nil, nil
			},
			wantCode: "join-keys",
		},
		{
			name: "join key arity mismatch",
			q:    joinQuery,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				jp := info.Joins[body(t, m)]
				jp.RightKeys = append(jp.RightKeys, jp.RightKeys[0])
			},
			wantCode: "join-keys",
		},
		{
			name: "unknown join strategy",
			q:    joinQuery,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.Joins[body(t, m)].Strategy = JoinStrategy(7)
			},
			wantCode: "join-strategy",
		},
		{
			name: "hash join with build-left flag",
			q:    joinQuery,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				jp := info.Joins[body(t, m)]
				jp.Strategy = JoinHash
				jp.BuildLeft = true
			},
			wantCode: "join-strategy",
		},
		{
			name: "projected column dropped",
			q:    `for $o in ({"a": 1, "b": 2}, {"a": 3, "b": 4}) where $o.a gt 0 return $o.b`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				vp := info.VectorPlans[body(t, m)]
				if vp.AllColumns || len(vp.Columns) != 2 {
					t.Fatalf("expected a two-column projection, got AllColumns=%v Columns=%v", vp.AllColumns, vp.Columns)
				}
				vp.Columns = vp.Columns[:1]
			},
			wantCode: "vector-columns",
		},
		{
			name: "all-columns flag cleared on whole-row plan",
			q:    `for $x in (1 to 50) where $x gt 2 return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.VectorPlans[body(t, m)].AllColumns = false
			},
			wantCode: "vector-columns",
		},
		{
			name: "scan column dropped",
			q:    `for $o in json-file("d.jsonl") where $o.a gt 0 return $o.b`,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				sp := info.ScanPlans[scanCall(t, body(t, m))]
				if sp == nil || len(sp.Columns) != 2 {
					t.Fatalf("expected a two-column scan plan, got %+v", sp)
				}
				sp.Columns = sp.Columns[:1]
			},
			wantCode: "scan-columns",
		},
		{
			name: "scan plan on a whole-row consumer",
			q:    `for $o in json-file("d.jsonl") where $o.a gt 0 return $o`,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				call := scanCall(t, body(t, m))
				if info.ScanPlans[call] != nil {
					t.Fatal("a FLWOR returning its scan variable must not be projected")
				}
				info.ScanPlans[call] = &ScanPlan{Columns: []string{"a"}}
			},
			wantCode: "scan-columns",
		},
		{
			name: "scan plan dropped",
			q:    `count(for $o in json-file("d.jsonl") where $o.a gt 0 return $o)`,
			opts: Options{},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				call := scanCall(t, m.Body.(*ast.FunctionCall).Args[0].(*ast.FLWOR))
				if sp := info.ScanPlans[call]; sp == nil || len(sp.Columns) != 1 {
					t.Fatalf("count over return $o must project on [a], got %+v", sp)
				}
				delete(info.ScanPlans, call)
			},
			wantCode: "scan-columns",
		},
		{
			name: "scan plan on a scan that heads no FLWOR",
			q:    `json-file("d.jsonl").a`,
			opts: Options{Cluster: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				call := m.Body.(*ast.ObjectLookup).Input.(*ast.FunctionCall)
				info.ScanPlans[call] = &ScanPlan{Columns: []string{"a"}}
			},
			wantCode: "scan-columns",
		},
		{
			name: "join plan on a vector scan",
			q:    `for $x in (1 to 50) where $x gt 2 return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.Joins[body(t, m)] = &JoinPlan{}
			},
			wantCode: "join-head",
		},
		{
			name: "vector plan and top-k bound on a sort that ends no pipeline",
			q:    `for $x in (1 to 100) order by $x let $y := 1 where $y eq 1 return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				f := body(t, m)
				if info.VectorPlans[f] != nil {
					t.Fatal("a sort followed by let/where must not vectorize")
				}
				info.Modes[f] = ModeVector
				info.VectorPlans[f] = &VectorPlan{OrderBy: orderBy(t, f), TopK: 1, AllColumns: true}
				info.TopK[orderBy(t, f)] = 1
			},
			wantCode: "vector-operator",
		},
		{
			name: "prune operator altered",
			q:    pruneQuery,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				pruneOf(t, info, body(t, m)).Op = "lt"
			},
			wantCode: "vector-prune",
		},
		{
			name: "prune literal kind altered",
			q:    pruneQuery,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				pruneOf(t, info, body(t, m)).Lit = item.Double(1)
			},
			wantCode: "vector-prune",
		},
		{
			name: "positional flag set on a scan without positions",
			q:    `for $x in (1 to 50) where $x gt 2 return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.VectorPlans[body(t, m)].Positional = true
			},
			wantCode: "vector-operator",
		},
		{
			name: "join flag cleared on a vector join",
			q:    vectorJoinQuery,
			opts: Options{Cluster: true, Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				vp := info.VectorPlans[body(t, m)]
				if vp == nil || !vp.Join {
					t.Fatalf("expected a vector join plan, got %+v", vp)
				}
				vp.Join = false
			},
			wantCode: "vector-operator",
		},
		{
			name: "order by pointed at another clause",
			q:    vectorTopKQuery,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				info.VectorPlans[body(t, m)].OrderBy = &ast.OrderByClause{Specs: orderBy(t, body(t, m)).Specs}
			},
			wantCode: "vector-topk",
		},
		{
			name: "value comparison in a where turned general",
			q: `for $x in (1 to 50)
where $x gt 0 and $x eq 2
return $x`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				cmp := whereEq(t, m)
				cmp.Op, cmp.General = "=", true
			},
			wantCode: "vector-operator",
			wantAt: func(t *testing.T, m *ast.Module) ast.Expr {
				return whereEq(t, m)
			},
		},
		{
			name: "vector agg over grouped pipeline",
			q:    `sum(for $x in (1 to 50) where $x gt 10 return $x)`,
			opts: Options{Vectorize: true},
			corrupt: func(t *testing.T, m *ast.Module, info *Info) {
				call := m.Body.(*ast.FunctionCall)
				info.VectorPlans[call.Args[0].(*ast.FLWOR)].Grouped = true
			},
			wantCode: "vector-agg",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, info := analyzeQuery(t, tc.q, tc.opts)
			if err := Verify(m, info); err != nil {
				t.Fatalf("plan not clean before corruption: %v", err)
			}
			tc.corrupt(t, m, info)
			err := Verify(m, info)
			if err == nil {
				t.Fatalf("corrupted plan verified clean")
			}
			ve, ok := err.(*VerifyError)
			if !ok {
				t.Fatalf("got %T, want *VerifyError", err)
			}
			found := false
			for _, d := range ve.Diags {
				if d.Code == tc.wantCode && (tc.wantAt == nil || d.Pos == tc.wantAt(t, m).Pos()) {
					found = true
				}
			}
			if !found && tc.wantAt != nil {
				t.Fatalf("no %q diagnostic at %s in: %v", tc.wantCode, tc.wantAt(t, m).Pos(), err)
			}
			if !found {
				t.Fatalf("no %q diagnostic in: %v", tc.wantCode, err)
			}
			if !strings.Contains(err.Error(), tc.wantCode) {
				t.Fatalf("error text does not carry the code: %v", err)
			}
		})
	}
}

// pruneQuery is a vector scan whose where pushes one zone-map predicate.
const pruneQuery = `for $o in ({"a": 1}, {"a": 3}) where $o.a gt 1 return $o.a`

// pruneOf returns the single prune predicate recorded for f.
func pruneOf(t *testing.T, info *Info, f *ast.FLWOR) *PrunePred {
	t.Helper()
	vp := info.VectorPlans[f]
	if vp == nil || len(vp.Prune) != 1 {
		t.Fatalf("expected one prune predicate, got %+v", vp)
	}
	return &vp.Prune[0]
}

// whereEq returns the second conjunct of the body's where clause, the
// comparison on line 2 after the and.
func whereEq(t *testing.T, m *ast.Module) *ast.Comparison {
	t.Helper()
	where := body(t, m).Clauses[1].(*ast.WhereClause)
	cmp := where.Cond.(*ast.Logic).R.(*ast.Comparison)
	if cmp.Pos().Line != 2 || cmp.Pos() == body(t, m).Pos() {
		t.Fatalf("comparison at %s, want line 2 apart from the FLWOR", cmp.Pos())
	}
	return cmp
}

// scanCall returns the json-file/collection call heading f.
func scanCall(t *testing.T, f *ast.FLWOR) *ast.FunctionCall {
	t.Helper()
	call, ok := f.Clauses[0].(*ast.ForClause).In.(*ast.FunctionCall)
	if !ok {
		t.Fatalf("FLWOR head is %T, want a scan call", f.Clauses[0].(*ast.ForClause).In)
	}
	return call
}
