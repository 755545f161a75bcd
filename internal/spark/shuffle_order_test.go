package spark

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// The shuffle reducers used to emit by ranging over their accumulation
// maps, so ReduceByKey and GroupByKey output order changed run to run with
// Go's randomized map iteration. They now replay first-seen key order;
// these tests pin that by collecting each RDD many times across fresh
// contexts and demanding bit-identical order every time. With 64 keys per
// partition, map-order iteration would shuffle the emit with overwhelming
// probability on every build.

func shuffleInput(ctx *Context) *RDD[Pair[string, int]] {
	var data []int
	for i := 0; i < 512; i++ {
		data = append(data, i)
	}
	r := Parallelize(ctx, data, 4)
	return MapToPair(r, func(v int) (string, int) { return fmt.Sprintf("k%03d", v%64), v })
}

func collectOrder[V any](t *testing.T, r *RDD[Pair[string, V]]) []string {
	t.Helper()
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(got))
	for i, kv := range got {
		keys[i] = kv.Key
	}
	return keys
}

func TestReduceByKeyDeterministicOrder(t *testing.T) {
	base := collectOrder(t, ReduceByKey(shuffleInput(testCtx()), func(a, b int) int { return a + b }))
	if len(base) != 64 {
		t.Fatalf("got %d keys, want 64", len(base))
	}
	for run := 0; run < 10; run++ {
		again := collectOrder(t, ReduceByKey(shuffleInput(testCtx()), func(a, b int) int { return a + b }))
		for i := range base {
			if again[i] != base[i] {
				t.Fatalf("run %d: key order diverged at %d: %s vs %s", run, i, again[i], base[i])
			}
		}
	}
}

func TestGroupByKeyDeterministicOrder(t *testing.T) {
	base := collectOrder(t, GroupByKey(shuffleInput(testCtx())))
	if len(base) != 64 {
		t.Fatalf("got %d keys, want 64", len(base))
	}
	for run := 0; run < 10; run++ {
		again := collectOrder(t, GroupByKey(shuffleInput(testCtx())))
		for i := range base {
			if again[i] != base[i] {
				t.Fatalf("run %d: key order diverged at %d: %s vs %s", run, i, again[i], base[i])
			}
		}
	}
}

// TestHashKeyStringsMatchFNV pins the inlined string hash to hash/fnv's
// FNV-1a: bucket placement — and with it the order a group-by emits its
// groups in — must not move, and hashing a key must not allocate.
func TestHashKeyStringsMatchFNV(t *testing.T) {
	keys := []string{"", "a", "French", "6\x1f\"\"\x1f1\x1f1\x1f", "x\x1f", "\x1fy", "héllo wörld", "日本語", "\x00\xff"}
	for _, k := range keys {
		h := fnv.New64a()
		h.Write([]byte(k))
		if got, want := hashKey(k), h.Sum64(); got != want {
			t.Errorf("hashKey(%q) = %d, hash/fnv says %d", k, got, want)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += hashKey(keys[3]) }); n != 0 {
		t.Errorf("hashKey allocates %.0f times per string key", n)
	}
	_ = sink
}
