package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumble/internal/dfs"
	"rumble/internal/item"
	"rumble/internal/parser"
	"rumble/internal/segment"
	"rumble/internal/spark"
	"rumble/internal/vector"
)

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

// TestMorselScratchAllocs pins what a warm morsel worker allocates: over a
// resident segment, through a filter and a projection, its second morsel
// reuses the first one's columns, lanes, masks and batches from its
// scratch, so what is left is one box per result row, the result slice
// and the vmorselResult.
func TestMorselScratchAllocs(t *testing.T) {
	if vector.Poison {
		t.Skip("a poisoning scratch drops the headers it frees")
	}
	var sb strings.Builder
	for i := 0; i < 2*vector.BatchSize; i++ {
		fmt.Fprintf(&sb, "{\"v\": %d, \"s\": \"s%d\"}\n", i, i%10)
	}
	path := filepath.Join(t.TempDir(), "d.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	store := segment.NewStore(64 << 20)
	ds, err := store.Open(path)
	if err != nil || ds == nil {
		t.Fatalf("open segments: %v", err)
	}
	env := &Env{
		Spark:       spark.NewContext(spark.Config{Parallelism: 1, Executors: 1}),
		Collections: map[string]string{},
		Vectorize:   true,
		Segments:    store,
	}
	prog := compileQuery(t, env, fmt.Sprintf(`for $o in json-file(%q) where $o.v mod 100 eq 7 return $o.v * 2`, path))
	vit, ok := prog.Root.(*vectorIter)
	if !ok {
		t.Fatalf("root is %T, want *vectorIter", prog.Root)
	}
	vs, _, err := vit.resolveExternals(NewDynamicContext())
	if err != nil {
		t.Fatal(err)
	}
	w := &vworker{scratch: vector.GetScratch(), dec: vit.newDecoder()}
	defer w.scratch.Release()
	var kept int
	morsel := func() {
		w.scratch.Reset()
		res, err := vit.processMorsel(vs, nil, vmorsel{idx: 1, ds: ds, off: vector.BatchSize, n: vector.BatchSize}, w)
		if err != nil {
			t.Fatal(err)
		}
		kept = len(res.items)
	}
	morsel() // the first morsel decodes the segment and fills the scratch
	got := testing.AllocsPerRun(20, morsel)
	if want := float64(kept + 2); got > want {
		t.Errorf("a warm morsel keeping %d rows made %v allocations, want at most %v (one box a row, the result slice, the vmorselResult)", kept, got, want)
	}
}

// TestRawMorselRowsDoNotAliasBuffers pins that rows decoded from a raw
// morsel never point into its record buffer, which goes back to
// rawBuffers as soon as they are decoded: with every returned buffer
// overwritten, whole rows and string fields read by the vector scan still
// equal the tuple scan's, at 1, 2 and 8 workers.
func TestRawMorselRowsDoNotAliasBuffers(t *testing.T) {
	defer func(old bool) { scribbleRecycled = old }(scribbleRecycled)
	scribbleRecycled = true
	var sb strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "{\"v\": %d, \"s\": \"str-%d\", \"o\": {\"k\": \"x%d\", \"a\": [%d, \"y\"]}}\n", i, i, i%13, i)
	}
	path := filepath.Join(t.TempDir(), "d.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(vectorize bool, workers int, q string) string {
		env := &Env{
			Spark:       spark.NewContext(spark.Config{Parallelism: 2, Executors: workers}),
			Collections: map[string]string{},
			Vectorize:   vectorize,
		}
		prog := compileQuery(t, env, q)
		if _, ok := prog.Root.(*vectorIter); ok != vectorize {
			t.Fatalf("root is %T with Vectorize=%v", prog.Root, vectorize)
		}
		items, err := Materialize(prog.Root, NewDynamicContext())
		if err != nil {
			t.Fatal(err)
		}
		return item.SerializeSequence(items)
	}
	for _, q := range []string{
		fmt.Sprintf(`for $o in json-file(%q) where $o.v mod 7 eq 0 return $o`, path),
		fmt.Sprintf(`for $o in json-file(%q) where $o.v mod 3 eq 0 return {"s": $o.s, "o": $o.o}`, path),
	} {
		want := run(false, 2, q)
		for _, w := range []int{1, 2, 8} {
			if got := run(true, w, q); got != want {
				t.Fatalf("%d workers: vector scan differs from the tuple scan\nvector:\n%.300s\ntuple:\n%.300s\nquery: %s", w, got, want, q)
			}
		}
	}
}
