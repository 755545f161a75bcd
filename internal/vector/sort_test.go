package vector

import (
	"math"
	"slices"
	"testing"

	"rumble/internal/item"
)

// topKKey maps one fuzz byte to an order-by key: the low three bits pick
// the kind (empty, null, boolean, int, double, string, NaN or -0.0), the
// rest a small value, so ties are common and numbers meet strings.
func topKKey(b byte, emptyGreatest bool) item.SortKey {
	v := int64(b>>3) % 6
	switch b & 7 {
	case 0:
		if emptyGreatest {
			return item.SortKey{Tag: item.TagEmptyGreatest}
		}
		return item.SortKey{Tag: item.TagEmptyLeast}
	case 1:
		return item.SortKey{Tag: item.TagNull}
	case 2:
		if v&1 == 1 {
			return item.SortKey{Tag: item.TagTrue}
		}
		return item.SortKey{Tag: item.TagFalse}
	case 3:
		return item.IntKey(v)
	case 4:
		return item.NumberKey(float64(v) / 2)
	case 5:
		return item.SortKey{Tag: item.TagString, Str: string(rune('a' + v))}
	case 6:
		return item.NumberKey(math.NaN())
	default:
		return item.NumberKey(math.Copysign(0, -1))
	}
}

// rowIndexes returns the scan index each row of r was appended with.
func rowIndexes(r *SortRows) []int64 {
	out := make([]int64, len(r.rows))
	for i, row := range r.rows {
		out[i] = int64(row.vals[0].(item.Int))
	}
	return out
}

// FuzzTopKMatchesSort holds the bounded top-k run to the first k rows of
// Append + Sort over fuzzed multi-key tuples (ties, NaN, -0.0, empty-least
// or -greatest keys, strings among numbers, mixed directions), and MergeTopK
// of the input split at a fuzzed point to the same rows. MergeRuns of the
// two halves, each sorted, must give the whole stable sort. The caller
// fills one key buffer for every AppendTopK call, so a kept row must not
// alias it.
func FuzzTopKMatchesSort(f *testing.F) {
	f.Add([]byte{3, 11, 19, 3, 5, 13, 0, 6, 7, 1, 2, 27}, uint8(0), uint8(2), uint16(5), uint8(0))
	f.Add([]byte{5, 3, 13, 11, 5, 3, 6, 0, 7, 4, 21, 12}, uint8(1), uint8(3), uint16(2), uint8(0x12))
	f.Add([]byte{0, 0, 8, 16, 24, 6, 7, 4, 1, 9}, uint8(2), uint8(0), uint16(9), uint8(0x35))
	f.Fuzz(func(t *testing.T, data []byte, nkeys, k uint8, split uint16, dirs uint8) {
		nk := 1 + int(nkeys)%3
		desc := make([]bool, nk)
		emptyGreatest := make([]bool, nk)
		for s := range desc {
			desc[s] = dirs>>s&1 == 1
			emptyGreatest[s] = dirs>>(s+4)&1 == 1
		}
		tuples := make([][]item.SortKey, len(data)/nk)
		for i := range tuples {
			tuples[i] = make([]item.SortKey, nk)
			for s := range tuples[i] {
				tuples[i][s] = topKKey(data[i*nk+s], emptyGreatest[s])
			}
		}
		kk := 1 + int(k)%(len(tuples)+2)
		p := int(split) % (len(tuples) + 1)

		sorted := func(from, to int) *SortRows {
			r := NewSortRows(desc)
			for i := from; i < to; i++ {
				r.Append(slices.Clone(tuples[i]), []item.Item{item.Int(i)})
			}
			r.Sort()
			return r
		}
		full := sorted(0, len(tuples))

		buf := make([]item.SortKey, nk)
		bounded := func(from, to int) *SortRows {
			r := NewSortRows(desc)
			for i := from; i < to; i++ {
				copy(buf, tuples[i])
				r.AppendTopK(buf, kk, func() []item.Item { return []item.Item{item.Int(i)} })
				clear(buf)
			}
			return r
		}
		check := func(what string, got *SortRows, n int) {
			t.Helper()
			want := &SortRows{rows: full.rows[:min(n, len(full.rows))]}
			if g, w := rowIndexes(got), rowIndexes(want); !slices.Equal(g, w) {
				t.Fatalf("%s (k=%d): rows %v, want %v", what, kk, g, w)
			}
			for i, row := range got.rows {
				if !slices.Equal(row.keys, want.rows[i].keys) {
					t.Fatalf("%s (k=%d): row %d keys %v, want %v", what, kk, i, row.keys, want.rows[i].keys)
				}
			}
		}
		check("AppendTopK", bounded(0, len(tuples)), kk)
		check("MergeTopK", MergeTopK(bounded(0, p), bounded(p, len(tuples)), kk), kk)

		merged := NewSortRows(desc)
		if err := MergeRuns([]*SortRows{sorted(0, p), sorted(p, len(tuples))}, func(vals []item.Item) error {
			merged.Append(tuples[vals[0].(item.Int)], vals)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("MergeRuns", merged, len(tuples))
	})
}

// TestAppendTopKRejectsWithoutAllocating pins the saturated top-k path: a
// row that ranks outside k costs one comparison, no allocation, and never
// materializes its values.
func TestAppendTopKRejectsWithoutAllocating(t *testing.T) {
	r := NewSortRows([]bool{false, true})
	keys := make([]item.SortKey, 2)
	for i := range 4 {
		keys[0], keys[1] = item.IntKey(int64(i)), item.SortKey{Tag: item.TagString, Str: "m"}
		r.AppendTopK(keys, 3, func() []item.Item { return []item.Item{item.Int(i)} })
	}
	keys[0], keys[1] = item.IntKey(2), item.SortKey{Tag: item.TagString, Str: "a"}
	called := false
	allocs := testing.AllocsPerRun(100, func() {
		r.AppendTopK(keys, 3, func() []item.Item { called = true; return nil })
	})
	if allocs != 0 || called {
		t.Fatalf("rejected row: %v allocations, vals called = %v; want 0, false", allocs, called)
	}
	if got := rowIndexes(r); !slices.Equal(got, []int64{0, 1, 2}) {
		t.Fatalf("run rows %v, want [0 1 2]", got)
	}
}
