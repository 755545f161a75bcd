package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/parser"
	"rumble/internal/spark"
)

func testEnv(sc *spark.Context) *Env {
	return &Env{
		Spark:       sc,
		Collections: map[string]string{},
		InMemory:    map[string][]item.Item{},
	}
}

func compileQuery(t *testing.T, env *Env, q string) *Program {
	t.Helper()
	m, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Compile(m, env)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestDynamicContextChaining(t *testing.T) {
	root := NewDynamicContext()
	a := root.BindVar("x", []item.Item{item.Int(1)})
	b := a.BindVar("y", []item.Item{item.Int(2)})
	if v, ok := b.Lookup("x"); !ok || int64(v[0].(item.Int)) != 1 {
		t.Error("parent binding not visible")
	}
	// Shadowing: the child wins; the parent is untouched.
	c := b.BindVar("x", []item.Item{item.Int(9)})
	if v, _ := c.Lookup("x"); int64(v[0].(item.Int)) != 9 {
		t.Error("shadowing failed")
	}
	if v, _ := b.Lookup("x"); int64(v[0].(item.Int)) != 1 {
		t.Error("parent context mutated by child binding")
	}
	if _, ok := root.Lookup("x"); ok {
		t.Error("root sees child binding")
	}
}

func TestContextItemChaining(t *testing.T) {
	root := NewDynamicContext()
	if _, _, ok := root.ContextItem(); ok {
		t.Error("root should have no context item")
	}
	c1 := root.tupleScope().rebindItem(item.Str("outer"), 1)
	c2 := c1.BindVar("v", nil)
	it, pos, ok := c2.ContextItem()
	if !ok || string(it.(item.Str)) != "outer" || pos != 1 {
		t.Error("context item should be visible through variable frames")
	}
	c3 := c2.tupleScope().rebindItem(item.Str("inner"), 5)
	it, pos, _ = c3.ContextItem()
	if string(it.(item.Str)) != "inner" || pos != 5 {
		t.Error("inner context item should shadow")
	}
}

func TestTupleShadowing(t *testing.T) {
	one := func(n int64) []item.Item { return []item.Item{item.Int(n)} }
	tu := tuple{}.with([]string{"x"}, one(1))
	tu = tu.with([]string{"x", "y"}, one(2))
	tu2 := tu.with([]string{"x", "y", "x"}, one(3))
	sc := NewDynamicContext().tupleScope()
	if v, _ := tu2.in(sc).Lookup("x"); int64(v[0].(item.Int)) != 3 {
		t.Error("tuple redeclaration should shadow")
	}
	if v, _ := tu.in(sc).Lookup("x"); int64(v[0].(item.Int)) != 1 {
		t.Error("tuple extension must not mutate the original")
	}
	if v, _ := tu2.in(sc).Lookup("y"); int64(v[0].(item.Int)) != 2 {
		t.Error("tuple extension should keep the earlier bindings")
	}
}

// TestClauseMappingFigure9 verifies the physical mappings of Figure 9: a
// group-by runs a shuffle, an order-by runs a sort shuffle, a count clause
// runs the zip-with-index stages, and a pure for/where pipeline shuffles
// nothing.
func TestClauseMappingFigure9(t *testing.T) {
	cases := []struct {
		name        string
		query       string
		wantShuffle bool
		wantMode    compiler.Mode
	}{
		{"for-where pipeline", `for $x in parallelize(1 to 100) where $x gt 50 return $x`, false, compiler.ModeDataFrame},
		{"group-by shuffles", `for $x in parallelize(1 to 100) group by $k := $x mod 3 return $k`, true, compiler.ModeDataFrame},
		{"order-by shuffles", `for $x in parallelize(1 to 100) order by $x descending return $x`, true, compiler.ModeDataFrame},
		{"let extends only", `for $x in parallelize(1 to 10) let $y := $x * 2 return $y`, false, compiler.ModeDataFrame},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
			prog := compileQuery(t, testEnv(sc), c.query)
			if prog.Mode() != c.wantMode {
				t.Fatalf("mode = %v, want %v", prog.Mode(), c.wantMode)
			}
			if _, err := prog.Run(); err != nil {
				t.Fatal(err)
			}
			m := sc.Metrics()
			if (m.ShuffleRecords > 0) != c.wantShuffle {
				t.Errorf("shuffle records = %d, want shuffle=%v", m.ShuffleRecords, c.wantShuffle)
			}
		})
	}
}

func TestCountClauseRunsZipWithIndexStages(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
	prog := compileQuery(t, testEnv(sc),
		`for $x in parallelize(1 to 100) count $c where $c le 3 return $c`)
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("count clause result = %v", out)
	}
	// zipWithIndex needs a counting stage before the streaming stage.
	if sc.Metrics().StagesRun < 2 {
		t.Errorf("stages = %d, want at least 2 (count stage + compute)", sc.Metrics().StagesRun)
	}
}

func TestMaterializeVsStreamAgree(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
	prog := compileQuery(t, testEnv(sc),
		`for $x in parallelize(1 to 50) where $x mod 5 eq 0 return $x`)
	viaRDD, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	viaStream, err := Materialize(prog.Root, prog.GlobalContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRDD) != len(viaStream) {
		t.Fatalf("RDD %d items vs stream %d items", len(viaRDD), len(viaStream))
	}
	for i := range viaRDD {
		if !item.DeepEqual(viaRDD[i], viaStream[i]) {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestPredicatePositionalOnRDD(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
	prog := compileQuery(t, testEnv(sc), `parallelize(10 to 100)[5]`)
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || int64(out[0].(item.Int)) != 14 {
		t.Errorf("positional predicate over RDD = %v", out)
	}
}

func TestJSONFileStreamAndRDDAgree(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.jsonl")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, `{"i": %d}`+"\n", i)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
	env := testEnv(sc)
	env.SplitSize = 256
	prog := compileQuery(t, env, fmt.Sprintf(`json-file(%q).i`, path))
	if prog.Mode() != compiler.ModeRDD {
		t.Fatalf("json-file lookup chain mode = %v, want RDD", prog.Mode())
	}
	viaRDD, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	viaStream, err := Materialize(prog.Root, prog.GlobalContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRDD) != 200 || len(viaStream) != 200 {
		t.Fatalf("RDD %d, stream %d", len(viaRDD), len(viaStream))
	}
	for i := range viaRDD {
		if !item.DeepEqual(viaRDD[i], viaStream[i]) {
			t.Fatalf("item %d differs: %v vs %v", i, viaRDD[i], viaStream[i])
		}
	}
}

func TestJSONFileMissingPath(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2})
	prog := compileQuery(t, testEnv(sc), `json-file("/no/such/file.jsonl")`)
	if _, err := prog.Run(); err == nil {
		t.Error("missing input should error")
	}
}

func TestJSONFileMalformedLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"ok\": 1}\n{broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2})
	prog := compileQuery(t, testEnv(sc), fmt.Sprintf(`count(json-file(%q))`, path))
	if _, err := prog.Run(); err == nil {
		t.Error("malformed JSON line should surface as an error")
	}
}

func TestGroupByCountSyntheticVarHiddenLocally(t *testing.T) {
	// The count-only optimization must also apply on the purely local
	// path (no Spark context).
	env := testEnv(nil)
	prog := compileQuery(t, env, `
		for $x in (1, 2, 3, 4)
		group by $k := $x mod 2
		order by $k
		return count($x)`)
	if prog.Mode() != compiler.ModeLocal {
		t.Fatal("no spark context: must be local")
	}
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || int64(out[0].(item.Int)) != 2 || int64(out[1].(item.Int)) != 2 {
		t.Errorf("local count-only grouping = %v", out)
	}
}

func TestIfBranchRDDCapability(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2})
	prog := compileQuery(t, testEnv(sc),
		`if (1 eq 1) then parallelize(1 to 10) else ()`)
	if prog.Mode() != compiler.ModeRDD {
		t.Fatalf("if with an RDD branch mode = %v, want RDD", prog.Mode())
	}
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Errorf("%d items", len(out))
	}
	// The other branch is local; the if must parallelize its result.
	prog2 := compileQuery(t, testEnv(sc),
		`if (1 eq 2) then parallelize(1 to 10) else (42, 43)`)
	out2, err := prog2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 2 || int64(out2[0].(item.Int)) != 42 {
		t.Errorf("local branch through RDD = %v", out2)
	}
}

func TestCommaRDDUnion(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2})
	prog := compileQuery(t, testEnv(sc),
		`(parallelize(1 to 3), parallelize(7 to 9))`)
	if prog.Mode() != compiler.ModeRDD {
		t.Fatalf("comma of RDDs mode = %v, want RDD", prog.Mode())
	}
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 7, 8, 9}
	if len(out) != len(want) {
		t.Fatalf("union = %v", out)
	}
	for i, w := range want {
		if int64(out[i].(item.Int)) != w {
			t.Fatalf("union[%d] = %v", i, out[i])
		}
	}
}

func TestDataFrameOrderByTypeCheckOnCluster(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
	prog := compileQuery(t, testEnv(sc), `
		for $o in parallelize(({"v": 1}, {"v": "a"}))
		order by $o.v
		return $o`)
	if _, err := prog.Run(); err == nil {
		t.Error("mixed-type order-by on the DataFrame path should error")
	}
}

func TestErrDynamicVsStatic(t *testing.T) {
	env := testEnv(nil)
	// static: unknown variable caught at compile time
	m, err := parser.Parse(`$nope`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(m, env); err == nil {
		t.Error("unbound variable should fail at compile time")
	}
	// dynamic: division by zero only fails at run time
	prog := compileQuery(t, env, `1 idiv 0`)
	if _, err := prog.Run(); err == nil {
		t.Error("idiv 0 should fail at run time")
	}
}

func TestAllowingEmptyDFFallsBackLocal(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2})
	prog := compileQuery(t, testEnv(sc),
		`for $x allowing empty in parallelize(()) return "kept"`)
	if prog.Mode() != compiler.ModeLocal {
		t.Error("initial for with allowing empty must fall back to local execution")
	}
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0].(item.Str)) != "kept" {
		t.Errorf("allowing empty = %v", out)
	}
}

func TestLeadingLetKeepsLocalExecution(t *testing.T) {
	sc := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2})
	prog := compileQuery(t, testEnv(sc),
		`let $n := 3 for $x in parallelize(1 to 10) where $x le $n return $x`)
	if prog.Mode() != compiler.ModeLocal {
		t.Error("a leading let keeps FLWOR execution local (§4.5)")
	}
	out, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("%d items", len(out))
	}
}

// TestLiteralKeyObjectsShareShape pins the tuple path's object
// constructor: with every key a string literal, the objects it builds share
// the one Shape made at compile time; a computed key still builds a shape
// per object, and its errors are unchanged.
func TestLiteralKeyObjectsShareShape(t *testing.T) {
	shapes := func(q string) []*item.Shape {
		t.Helper()
		items, err := compileQuery(t, &Env{Collections: map[string]string{}}, q).Run()
		if err != nil {
			t.Fatal(err)
		}
		var out []*item.Shape
		for _, it := range items {
			out = append(out, it.(*item.Object).Shape())
		}
		return out
	}
	lit := shapes(`for $i in 1 to 3 return {"a": $i, "b": (), "a": ($i, $i)}`)
	if len(lit) != 3 || lit[0] != lit[1] || lit[1] != lit[2] {
		t.Errorf("literal keys: shapes %p, want one shared", lit)
	}
	if got := fmt.Sprint(lit[0].Keys()); got != "[a b a]" {
		t.Errorf("literal keys: %s, want [a b a]", got)
	}
	if dyn := shapes(`for $i in 1 to 2 return {"a" || $i: $i}`); dyn[0] == dyn[1] {
		t.Error("computed keys share a shape")
	}
	_, err := compileQuery(t, &Env{Collections: map[string]string{}}, `{"a": 1, (1, 2): 2}`).Run()
	if want := "object key requires a single item, got a sequence of 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a sequence key: %v, want %q", err, want)
	}
}
