package spark

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestReduceByKeyWordCount(t *testing.T) {
	ctx := testCtx()
	words := []string{"a", "b", "a", "c", "b", "a", "a"}
	r := Parallelize(ctx, words, 3)
	pairs := MapToPair(r, func(w string) (string, int) { return w, 1 })
	counts := ReduceByKey(pairs, func(a, b int) int { return a + b })
	got, err := Collect(counts)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]int{}
	for _, kv := range got {
		m[kv.Key] = kv.Value
	}
	want := map[string]int{"a": 4, "b": 2, "c": 1}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, m[k], v)
		}
	}
	if len(m) != 3 {
		t.Errorf("got %d distinct keys", len(m))
	}
}

func TestGroupByKeyGathersAll(t *testing.T) {
	ctx := testCtx()
	type rec struct {
		k string
		v int
	}
	var data []rec
	for i := 0; i < 100; i++ {
		data = append(data, rec{k: string(rune('a' + i%5)), v: i})
	}
	r := Parallelize(ctx, data, 4)
	pairs := MapToPair(r, func(x rec) (string, int) { return x.k, x.v })
	groups, err := Collect(GroupByKey(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 {
		t.Fatalf("got %d groups", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g.Value)
		for _, v := range g.Value {
			if string(rune('a'+v%5)) != g.Key {
				t.Fatalf("value %d landed in group %s", v, g.Key)
			}
		}
	}
	if total != 100 {
		t.Errorf("groups cover %d values, want 100 (exactly-once)", total)
	}
}

func TestSortByGlobalOrder(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(42))
	data := make([]int, 10000)
	for i := range data {
		data[i] = rng.Intn(1 << 20)
	}
	r := Parallelize(ctx, data, 8)
	sorted := SortBy(r, func(a, b int) bool { return a < b }, nil)
	got, err := Collect(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("sorted has %d elements, want %d", len(got), len(data))
	}
	want := sortedCopy(data)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestSortByDescendingAndDuplicates(t *testing.T) {
	ctx := testCtx()
	data := []int{5, 3, 5, 1, 3, 3, 9, 0}
	sorted := SortBy(Parallelize(ctx, data, 3), func(a, b int) bool { return a > b }, nil)
	got, err := Collect(sorted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Fatalf("not descending: %v", got)
		}
	}
}

func TestSortByStability(t *testing.T) {
	ctx := testCtx()
	type rec struct{ k, seq int }
	var data []rec
	for i := 0; i < 500; i++ {
		data = append(data, rec{k: i % 7, seq: i})
	}
	sorted := SortBy(Parallelize(ctx, data, 5), func(a, b rec) bool { return a.k < b.k }, nil)
	got, err := Collect(sorted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].k == got[i-1].k && got[i].seq < got[i-1].seq {
			t.Fatalf("sort not stable at %d", i)
		}
	}
}

func TestZipWithIndex(t *testing.T) {
	ctx := testCtx()
	data := make([]string, 100)
	for i := range data {
		data[i] = string(rune('A' + i%26))
	}
	zipped := ZipWithIndex(Parallelize(ctx, data, 7))
	got, err := Collect(zipped)
	if err != nil {
		t.Fatal(err)
	}
	for i, kv := range got {
		if kv.Key != int64(i) {
			t.Fatalf("index %d has key %d", i, kv.Key)
		}
		if kv.Value != data[i] {
			t.Fatalf("index %d holds %q, want %q", i, kv.Value, data[i])
		}
	}
}

func TestDistinct(t *testing.T) {
	ctx := testCtx()
	data := []int{1, 2, 2, 3, 3, 3, 4}
	d := Distinct(Parallelize(ctx, data, 3), func(x int) int { return x })
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distinct = %v", got)
		}
	}
}

func TestKeysValues(t *testing.T) {
	ctx := testCtx()
	pairs := Parallelize(ctx, []Pair[string, int]{{"a", 1}, {"b", 2}}, 1)
	vs, err := Collect(Values(pairs))
	if err != nil || len(vs) != 2 || vs[1] != 2 {
		t.Errorf("values = %v, %v", vs, err)
	}
}

// Property: ReduceByKey(+) over integer keys equals a sequential
// hash-reduce of the same data.
func TestReduceByKeyMatchesSequential(t *testing.T) {
	ctx := testCtx()
	f := func(data []int16) bool {
		r := Parallelize(ctx, data, 4)
		pairs := MapToPair(r, func(v int16) (int16, int64) { return v % 10, int64(v) })
		reduced, err := Collect(ReduceByKey(pairs, func(a, b int64) int64 { return a + b }))
		if err != nil {
			return false
		}
		want := map[int16]int64{}
		for _, v := range data {
			want[v%10] += int64(v)
		}
		if len(reduced) != len(want) {
			return false
		}
		for _, kv := range reduced {
			if want[kv.Key] != kv.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SortBy preserves the multiset (same length, same sorted content).
func TestSortByPreservesMultiset(t *testing.T) {
	ctx := testCtx()
	f := func(data []int32) bool {
		ints := make([]int, len(data))
		for i, v := range data {
			ints[i] = int(v)
		}
		got, err := Collect(SortBy(Parallelize(ctx, ints, 4), func(a, b int) bool { return a < b }, nil))
		if err != nil {
			return false
		}
		want := sortedCopy(ints)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShuffleSharedAcrossConsumers(t *testing.T) {
	// Two different downstream actions on the same grouped RDD must reuse
	// one exchange (write-once shuffle).
	ctx := testCtx()
	data := intsUpTo(1000)
	pairs := MapToPair(Parallelize(ctx, data, 4), func(v int) (int, int) { return v % 10, v })
	grouped := GroupByKey(pairs)
	before := ctx.Metrics().ShuffleRecords
	if _, err := Count(grouped); err != nil {
		t.Fatal(err)
	}
	mid := ctx.Metrics().ShuffleRecords
	if _, err := Count(grouped); err != nil {
		t.Fatal(err)
	}
	after := ctx.Metrics().ShuffleRecords
	if mid == before {
		t.Error("first action did not record shuffle records")
	}
	if after != mid {
		t.Errorf("second action re-ran the shuffle: %d -> %d", mid, after)
	}
}
