package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumble/internal/dfs"
	"rumble/internal/parser"
	"rumble/internal/spark"
	"rumble/internal/vector"
)

// TestVectorPlansBuildVectorIter pins that every vector-eligible query
// shape actually compiles to the columnar iterator. The eligibility
// analysis (compiler/vector.go) and the runtime vector compiler
// (runtime/vector.go) are parallel grammars; compileVector failures fall
// back silently to the tuple pipeline by design, so without this test a
// divergence would keep reporting Mode=Vector while running tuples.
func TestVectorPlansBuildVectorIter(t *testing.T) {
	env := &Env{
		Spark:       spark.NewContext(spark.Config{Parallelism: 2, Executors: 2}),
		Collections: map[string]string{},
		InMemory:    nil,
		Vectorize:   true,
	}
	queries := map[string]string{
		"filter-project": `for $o in json-file("d.jsonl")
			where $o.score gt 3 and contains($o.body, "x")
			return { "s": $o.score }`,
		"lets-and-arith": `for $o in json-file("d.jsonl")
			let $b := $o.score * 2
			where $b gt 3
			return [ -$b ]`,
		"group-aggregates": `for $o in json-file("d.jsonl")
			group by $t := $o.target
			return { "t": $t, "n": count($o), "s": sum($o.score),
				"a": avg($o.score), "lo": min($o.score), "hi": max($o.score) }`,
		"group-by-existing-var": `for $o in json-file("d.jsonl")
			let $t := $o.target
			group by $t
			return { "t": $t, "n": count($o) }`,
		"free-variable": `declare variable $min := 3;
			for $o in json-file("d.jsonl") where $o.score ge $min return $o.score`,
		"rdd-let-head": `let $d := json-file("d.jsonl")
			for $x in $d where $x.score ge 100 return $x.body`,
		"scalar-builtins": `for $o in json-file("d.jsonl")
			where starts-with(upper-case($o.t), "A") or string-length($o.t) eq 3
			return string($o.t)`,
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			m, err := parser.Parse(q)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			prog, err := Compile(m, env)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			root := prog.Root
			if rl, ok := root.(*rddLetIter); ok {
				root = rl.inner
			}
			vit, ok := root.(*vectorIter)
			if !ok {
				t.Fatalf("root is %T, want *vectorIter — the runtime vector "+
					"compiler declined a shape the eligibility analysis admitted", root)
			}
			if vit.fallback == nil {
				t.Fatal("vectorIter built without a tuple fallback")
			}
		})
	}
}

// TestVectorScanChargesBlocks pins the simulated storage blocks a raw
// vector scan charges its morsels: the whole blocks the cumulative record
// volume (each record plus its newline) crossed while the morsel filled,
// with the trailing partial block charged once, to the last morsel — the
// same rounding dfs.ReadLines applies, across split boundaries too.
func TestVectorScanChargesBlocks(t *testing.T) {
	var sb strings.Builder
	var lens []int64
	for i := 0; i < 5000; i++ {
		line := fmt.Sprintf(`{"v": %d, "pad": %q}`, i, strings.Repeat("x", i%97))
		sb.WriteString(line + "\n")
		lens = append(lens, int64(len(line))+1)
	}
	path := filepath.Join(t.TempDir(), "d.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Spark:       spark.NewContext(spark.Config{Parallelism: 2, Executors: 1}),
		Collections: map[string]string{},
		SplitSize:   50_000,
		Vectorize:   true,
	}
	m, err := parser.Parse(fmt.Sprintf(`for $o in json-file(%q) return $o.v`, path))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(m, env)
	if err != nil {
		t.Fatal(err)
	}
	vit, ok := prog.Root.(*vectorIter)
	if !ok {
		t.Fatalf("root is %T, want *vectorIter", prog.Root)
	}
	var got []int
	err = vit.scanMorsels(NewDynamicContext(), func(m vmorsel) error {
		got = append(got, m.blocks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	var cum, prev int64
	for i, l := range lens {
		cum += l
		if (i+1)%vector.BatchSize == 0 || i == len(lens)-1 {
			b := int(cum/dfs.BlockSize - prev/dfs.BlockSize)
			prev = cum
			want = append(want, b)
		}
	}
	if cum%dfs.BlockSize > 0 {
		want[len(want)-1]++
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%d morsels charged %v blocks, want %d charged %v", len(got), got, len(want), want)
	}
}
