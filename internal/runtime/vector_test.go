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
