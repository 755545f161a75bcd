package spark

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// tagged is a record whose sort key repeats often and whose pos is its
// place in the input, so the order of ties shows in the output.
type tagged struct{ k, pos int }

// splitRDD spreads data over len(sizes) partitions of those sizes, empty
// ones included.
func splitRDD[T any](ctx *Context, data []T, sizes []int) *RDD[T] {
	offs := make([]int, len(sizes)+1)
	for i, n := range sizes {
		offs[i+1] = offs[i] + n
	}
	return NewRDD(ctx, len(sizes), "split", func(p int, yield func(T) error) error {
		for _, v := range data[offs[p]:offs[p+1]] {
			if err := yield(v); err != nil {
				return err
			}
		}
		return nil
	})
}

// randomSizes deals n records to parts partitions at random, leaving about
// a quarter of the partitions empty.
func randomSizes(rng *rand.Rand, n, parts int) []int {
	var open []int
	for p := 0; p < parts; p++ {
		if rng.Intn(4) != 0 {
			open = append(open, p)
		}
	}
	if len(open) == 0 {
		open = []int{rng.Intn(parts)}
	}
	sizes := make([]int, parts)
	for i := 0; i < n; i++ {
		sizes[open[rng.Intn(len(open))]]++
	}
	return sizes
}

// partitionsOf computes every partition of r, in order, on the calling
// goroutine.
func partitionsOf[T any](t testing.TB, r *RDD[T]) [][]T {
	t.Helper()
	out := make([][]T, r.parts)
	for p := range out {
		if err := r.compute(p, func(v T) error {
			out[p] = append(out[p], v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// samePartitions fails t unless got and want hold the same partitions with
// the same records in the same order.
func samePartitions[T any](t testing.TB, what string, got, want [][]T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", what, len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) || (len(want[p]) > 0 && !reflect.DeepEqual(got[p], want[p])) {
			t.Fatalf("%s: partition %d differs\ngot  %.400v\nwant %.400v", what, p, got[p], want[p])
		}
	}
}

// checkSortByMatchesBuckets holds SortBy to the bucket-and-stable-sort
// oracle on n records with many duplicate keys over parts input partitions
// and par output partitions.
func checkSortByMatchesBuckets(t *testing.T, seed int64, n, parts, par int) {
	rng := rand.New(rand.NewSource(seed))
	keys := rng.Intn(40) + 1
	data := make([]tagged, n)
	for i := range data {
		data[i] = tagged{k: rng.Intn(keys), pos: i}
	}
	less := func(a, b tagged) bool { return a.k < b.k }
	if rng.Intn(2) == 0 {
		less = func(a, b tagged) bool { return a.k > b.k }
	}
	ctx := NewContext(Config{Parallelism: par, Executors: rng.Intn(4) + 1})
	in := splitRDD(ctx, data, randomSizes(rng, n, parts))
	what := fmt.Sprintf("seed %d, %d records, %d partitions, parallelism %d", seed, n, parts, par)
	samePartitions(t, what, partitionsOf(t, SortBy(in, less, nil)), partitionsOf(t, oracleSortBy(in, less)))
}

// FuzzSortByMatchesBuckets holds the in-place sort and per-range merge to
// the SortBy they replaced (shuffle_oracle_test.go): every output
// partition's records and their order, on totals either side of the
// 1,024-record sample stride, empty partitions and Parallelism 1 to 8.
func FuzzSortByMatchesBuckets(f *testing.F) {
	seeds := []struct {
		seed       int64
		n          uint16
		parts, par uint8
	}{
		{1, 0, 0, 0}, {2, 7, 2, 3}, {3, 1023, 3, 7}, {4, 1024, 4, 2},
		{5, 1025, 7, 1}, {6, 2049, 5, 7}, {7, 4000, 0, 4}, {8, 3001, 8, 0},
	}
	for _, s := range seeds {
		f.Add(s.seed, s.n, s.parts, s.par)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, parts, par uint8) {
		checkSortByMatchesBuckets(t, seed, int(n)%5000, int(parts)%12+1, int(par)%8+1)
	})
}

func TestSortByCheckRunsBeforeOutput(t *testing.T) {
	ctx := testCtx()
	wantErr := errors.New("mix")
	var computed, checked atomic.Int64
	in := Map(Parallelize(ctx, intsUpTo(100), 4), func(v int) int { computed.Add(1); return v })
	sorted := SortBy(in, func(a, b int) bool { return a < b }, func() error {
		if n := computed.Load(); n != 100 {
			t.Errorf("check ran after %d of 100 records", n)
		}
		checked.Add(1)
		return wantErr
	})
	if _, err := Take(sorted, 1); !errors.Is(err, wantErr) {
		t.Fatalf("Take: %v, want the check's error", err)
	}
	if _, err := Count(sorted); !errors.Is(err, wantErr) {
		t.Fatalf("Count: %v, want the check's error", err)
	}
	if n := checked.Load(); n < 2 {
		t.Errorf("check ran %d times, want once per computed partition", n)
	}
}

// randomPairs draws a pair RDD of up to 600 records over up to 30 string
// keys in 1 to 6 partitions, some empty; each value is its record's place.
func randomPairs(ctx *Context, rng *rand.Rand) *RDD[Pair[string, int]] {
	n, keys, parts := rng.Intn(600), rng.Intn(30)+1, rng.Intn(6)+1
	data := make([]Pair[string, int], n)
	for i := range data {
		data[i] = Pair[string, int]{fmt.Sprintf("k%d", rng.Intn(keys)), i}
	}
	return splitRDD(ctx, data, randomSizes(rng, n, parts))
}

// TestExchangeReadersKeepOrder holds GroupByKey, ReduceByKey, JoinByKey and
// PartitionBy, which read the exchange's chunked runs in place, to readers
// of the concatenated buckets: the same records in every output partition, emitted in the same
// order. Groups are cut from one array with cap == len, so appending to
// one leaves its neighbour alone.
func TestExchangeReadersKeepOrder(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		par := rng.Intn(8) + 1
		ctx := NewContext(Config{Parallelism: par, Executors: rng.Intn(4) + 1})
		left, right := randomPairs(ctx, rng), randomPairs(ctx, rng)
		bl, err := oracleBuckets(left, par)
		if err != nil {
			t.Fatal(err)
		}
		br, err := oracleBuckets(right, par)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d, parallelism %d", seed, par)

		groups := partitionsOf(t, GroupByKey(left))
		wantGroups := make([][]Pair[string, []int], par)
		wantJoin := make([][]Pair[string, Joined[int, int]], par)
		for b := range bl {
			wantGroups[b] = oracleGroup(bl[b])
			wantJoin[b] = oracleJoin(bl[b], br[b])
		}
		samePartitions(t, "GroupByKey "+what, groups, wantGroups)
		for _, part := range groups {
			for i, g := range part {
				if cap(g.Value) != len(g.Value) {
					t.Fatalf("%s: group %q has cap %d, len %d", what, g.Key, cap(g.Value), len(g.Value))
				}
				if i+1 < len(part) {
					next := append([]int(nil), part[i+1].Value...)
					_ = append(g.Value, -1)
					if !reflect.DeepEqual(part[i+1].Value, next) {
						t.Fatalf("%s: appending to group %q changed group %q", what, g.Key, part[i+1].Key)
					}
				}
			}
		}

		samePartitions(t, "JoinByKey "+what, partitionsOf(t, JoinByKey(left, right, nil)), wantJoin)
		samePartitions(t, "PartitionBy "+what, partitionsOf(t, PartitionBy(left)), bl)

		// A combine that keeps its operands' order shows any reordering.
		strs := Map(left, func(kv Pair[string, int]) Pair[string, string] {
			return Pair[string, string]{kv.Key, fmt.Sprint(kv.Value)}
		})
		concat := func(a, b string) string { return a + "," + b }
		wantReduce, err := oracleReduce(strs, par, concat)
		if err != nil {
			t.Fatal(err)
		}
		samePartitions(t, "ReduceByKey "+what, partitionsOf(t, ReduceByKey(strs, concat)), wantReduce)
	}
}

// allocRatio runs op over 8,192 records of 64 bytes in 4 partitions on one
// executor, consumes it with Count, and returns the bytes allocated per
// byte of records, the least of three runs.
func allocRatio[T any](t *testing.T, data []T, op func(*RDD[T]) (int64, error)) float64 {
	t.Helper()
	const records, size = 8192, 64
	best := -1.0
	for run := 0; run < 3; run++ {
		in := Parallelize(NewContext(Config{Parallelism: 4, Executors: 1}), data, 4)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		n, err := op(in)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("op consumed nothing")
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / (records * size)
		if best < 0 || ratio < best {
			best = ratio
		}
	}
	return best
}

// record64 is a 64-byte record.
type record64 struct {
	key int64
	pad [7]int64
}

// TestShuffleAllocCeilings bounds what SortBy, GroupByKey and PartitionBy
// allocate per byte of the records they shuffle. Each materializes its
// records once on the map side and reads slices of that copy: a sort that
// copied its runs into range buckets, a group-by that concatenated the
// exchange and grew per-key slices by appending, or an exchange whose
// buckets regrew by appending, allocates well past these bounds.
func TestShuffleAllocCeilings(t *testing.T) {
	recs := make([]record64, 8192)
	pairs := make([]Pair[int64, [7]int64], len(recs))
	rng := rand.New(rand.NewSource(1))
	for i := range recs {
		recs[i].key = rng.Int63n(1 << 20)
		pairs[i].Key = int64(i % 256)
	}
	sortRatio := allocRatio(t, recs, func(in *RDD[record64]) (int64, error) {
		return Count(SortBy(in, func(a, b record64) bool { return a.key < b.key }, nil))
	})
	if sortRatio > 3.5 {
		t.Errorf("SortBy allocates %.2f× its records' bytes, want at most 3.5×", sortRatio)
	}
	groupRatio := allocRatio(t, pairs, func(in *RDD[Pair[int64, [7]int64]]) (int64, error) {
		return Count(GroupByKey(in))
	})
	if groupRatio > 3.0 {
		t.Errorf("GroupByKey allocates %.2f× its records' bytes, want at most 3.0×", groupRatio)
	}
	partRatio := allocRatio(t, pairs, func(in *RDD[Pair[int64, [7]int64]]) (int64, error) {
		return Count(PartitionBy(in))
	})
	if partRatio > 2.0 {
		t.Errorf("PartitionBy allocates %.2f× its records' bytes, want at most 2.0×", partRatio)
	}
	t.Logf("SortBy %.2f×, GroupByKey %.2f×, PartitionBy %.2f×", sortRatio, groupRatio, partRatio)
}
