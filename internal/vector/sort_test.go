package vector

import (
	"math"
	"slices"
	"testing"

	"rumble/internal/item"
	"rumble/internal/orderby"
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

// FuzzTopKMatchesSort holds the vector backend's two routes through an
// order-by to one answer over fuzzed multi-key tuples (ties, NaN, -0.0,
// empty-least or -greatest keys, strings among numbers, mixed directions)
// cut into two morsels at a fuzzed point. The sort route stably sorts each
// morsel's SortRows and MergeRuns them; it must give the whole stable
// sort. The top-k route keeps each morsel's first k row indexes in one
// orderby.Bounded, reset between morsels and fed through one reused key
// buffer; TopRows hands each morsel's survivors over as a sorted run, which
// must be the first k rows of the morsel's stable sort, and OfferTo offers
// them in morsel order to the coordinator's Bounded. That must give the
// sort route's first k rows, keys included.
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
		kk := 1 + int64(k)%int64(len(tuples)+2)
		p := int(split) % (len(tuples) + 1)
		morsels := [][2]int{{0, p}, {p, len(tuples)}}

		sorted := func(from, to int) *SortRows {
			r := NewSortRows(desc)
			for i := from; i < to; i++ {
				r.Append(slices.Clone(tuples[i]), []item.Item{item.Int(i)})
			}
			r.Sort()
			return r
		}
		full := sorted(0, len(tuples))
		check := func(what string, got, of *SortRows, n int) {
			t.Helper()
			want := &SortRows{rows: of.rows[:min(n, len(of.rows))]}
			if g, w := rowIndexes(got), rowIndexes(want); !slices.Equal(g, w) {
				t.Fatalf("%s (k=%d): rows %v, want %v", what, kk, g, w)
			}
			for i, row := range got.rows {
				if !slices.Equal(row.keys, want.rows[i].keys) {
					t.Fatalf("%s (k=%d): row %d keys %v, want %v", what, kk, i, row.keys, want.rows[i].keys)
				}
			}
		}

		merged := NewSortRows(desc)
		runs := []*SortRows{sorted(morsels[0][0], morsels[0][1]), sorted(morsels[1][0], morsels[1][1])}
		if err := MergeRuns(runs, func(vals []item.Item) error {
			merged.Append(tuples[vals[0].(item.Int)], vals)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("MergeRuns", merged, full, len(tuples))

		// Each morsel runs through one worker's Bounded, reset in between,
		// by row index; its survivors leave as a sorted run, offered in
		// morsel order to the coordinator's Bounded.
		top := orderby.NewBounded[[]item.Item](kk, desc)
		worker := orderby.NewBounded[int32](kk, desc)
		buf := make([]item.SortKey, nk)
		for _, m := range morsels {
			worker.Reset()
			for i := m[0]; i < m[1]; i++ {
				copy(buf, tuples[i])
				if s := worker.Offer(buf); s != nil {
					*s = int32(i - m[0])
				}
				clear(buf)
			}
			run, err := TopRows(worker, desc, 1, func(row int32, dst []item.Item) error {
				dst[0] = item.Int(m[0] + int(row))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check("morsel survivors", run, sorted(m[0], m[1]), int(kk))
			run.OfferTo(top)
		}
		bounded := NewSortRows(desc)
		if err := top.Sorted(func(keys []item.SortKey, vals []item.Item) error {
			bounded.Append(keys, vals)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("top-k", bounded, full, int(kk))
	})
}
