package vector

import (
	"rumble/internal/item"
	"rumble/internal/orderby"
)

// OrderKey encodes row i as an order-by key under orderby.Key's rule,
// reading typed lanes directly.
func (c *Col) OrderKey(i int, emptyGreatest bool) (item.SortKey, error) {
	j := c.idx(i)
	switch c.Tags[j] {
	case TagAbsent:
		return orderby.Key(nil, emptyGreatest)
	case TagNull:
		return item.SortKey{Tag: item.TagNull}, nil
	case TagFalse:
		return item.SortKey{Tag: item.TagFalse}, nil
	case TagTrue:
		return item.SortKey{Tag: item.TagTrue}, nil
	case TagInt:
		return item.IntKey(c.Ints[j]), nil
	case TagDouble:
		return item.NumberKey(c.Nums[j]), nil
	case TagString:
		return item.SortKey{Tag: item.TagString, Str: c.str(j)}, nil
	default:
		return orderby.Key(c.Items[j:j+1], emptyGreatest)
	}
}

// Absent reports whether row i is the empty sequence.
func (c *Col) Absent(i int) bool { return c.Tags[c.idx(i)] == TagAbsent }

// sortRow is one pipeline row awaiting merge: its encoded keys (one per
// order-by spec) and the slot values needed to project it later.
type sortRow struct {
	keys []item.SortKey
	vals []item.Item
}

// SortRows is a sorted run of pipeline rows: each morsel worker sorts its
// own run stably in scan order, and the coordinator merges runs in morsel
// index order, so the merged stream is exactly the stable sort of the whole
// scan — identical at every worker count.
type SortRows struct {
	desc []bool
	rows []sortRow
}

// NewSortRows returns an empty run ordered by keys that sort descending
// where desc holds.
func NewSortRows(desc []bool) *SortRows {
	return &SortRows{desc: desc}
}

func (r *SortRows) less(a, b sortRow) bool {
	return orderby.Compare(r.desc, a.keys, b.keys) < 0
}

// Append adds one row (keys in spec order, vals indexed by pipeline slot).
func (r *SortRows) Append(keys []item.SortKey, vals []item.Item) {
	r.rows = append(r.rows, sortRow{keys: keys, vals: vals})
}

// Sort stably sorts the run; equal keys keep their append (scan) order.
func (r *SortRows) Sort() {
	orderby.Stable(r.rows, r.less)
}

// TopRows assembles the rows a morsel's bounded sort kept into a run that
// is already sorted: its rows first to last, each with a copy of its keys
// and the slot values vals fills for its row index. Keys and values come
// from one heap slab each, sized by the rows kept, since the run outlives
// the morsel and top is reset for the next one. The first vals error
// stops the assembly.
func TopRows(top *orderby.Bounded[int32], desc []bool, width int, vals func(row int32, dst []item.Item) error) (*SortRows, error) {
	n, nk := top.Len(), len(desc)
	r := &SortRows{desc: desc, rows: make([]sortRow, 0, n)}
	keySlab, valSlab := make([]item.SortKey, n*nk), make([]item.Item, n*width)
	err := top.Sorted(func(keys []item.SortKey, row int32) error {
		i := len(r.rows)
		ks := keySlab[i*nk : (i+1)*nk : (i+1)*nk]
		vs := valSlab[i*width : (i+1)*width : (i+1)*width]
		copy(ks, keys)
		r.rows = append(r.rows, sortRow{keys: ks, vals: vs})
		return vals(row, vs)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// OfferTo offers the rows of a sorted run to top in order, stopping at the
// first row top declines: every later row ranks after it.
func (r *SortRows) OfferTo(top *orderby.Bounded[[]item.Item]) {
	for _, row := range r.rows {
		p := top.Offer(row.keys)
		if p == nil {
			return
		}
		*p = row.vals
	}
}

// MergeRuns k-way-merges sorted runs (indexed in morsel order) and calls
// emit once per row with its slot values, in globally sorted order; of
// equal rows the earlier morsel's goes first.
func MergeRuns(runs []*SortRows, emit func(vals []item.Item) error) error {
	if len(runs) == 0 {
		return nil
	}
	heads := make([][]sortRow, len(runs))
	for i, r := range runs {
		heads[i] = r.rows
	}
	return orderby.Merge(heads, runs[0].less, func(row sortRow) error { return emit(row.vals) })
}
