package vector

import (
	"slices"

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

// AppendTopK inserts one row into a run kept sorted and bounded at k rows —
// the fused top-k morsel path. Insertion is stable (a row ties after the
// equal rows already present, preserving scan order), so the bounded run is
// exactly the first k rows of Append-all + Sort. vals is only
// called when the row survives, so the tail of the scan is never
// materialized; the common case once the run saturates is a single
// comparison against the current k-th row.
//
// keys is only read during the call: AppendTopK copies it when the row is
// kept, so the caller may reuse one key buffer for every row, and a row
// that ranks outside k costs no allocation.
func (r *SortRows) AppendTopK(keys []item.SortKey, k int, vals func() []item.Item) {
	if len(r.rows) >= k && orderby.Compare(r.desc, keys, r.rows[k-1].keys) >= 0 {
		return
	}
	keys = slices.Clone(keys)
	lo, hi := 0, len(r.rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if orderby.Compare(r.desc, r.rows[mid].keys, keys) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.rows = append(r.rows, sortRow{})
	copy(r.rows[lo+1:], r.rows[lo:])
	r.rows[lo] = sortRow{keys: keys, vals: vals()}
	if len(r.rows) > k {
		r.rows = r.rows[:k]
	}
}

// Sort stably sorts the run; equal keys keep their append (scan) order.
func (r *SortRows) Sort() {
	orderby.Stable(r.rows, r.less)
}

// MergeTopK merges a later sorted run into the accumulated top-k, keeping
// at most k rows. acc wins ties: its rows come from earlier morsels, so the
// bounded result is exactly the first k rows of the full stable sort.
func MergeTopK(acc, run *SortRows, k int) *SortRows {
	out := NewSortRows(acc.desc)
	out.rows = make([]sortRow, 0, k)
	i, j := 0, 0
	for len(out.rows) < k && (i < len(acc.rows) || j < len(run.rows)) {
		switch {
		case j >= len(run.rows):
			out.rows = append(out.rows, acc.rows[i])
			i++
		case i >= len(acc.rows):
			out.rows = append(out.rows, run.rows[j])
			j++
		case orderby.Compare(acc.desc, acc.rows[i].keys, run.rows[j].keys) <= 0:
			out.rows = append(out.rows, acc.rows[i])
			i++
		default:
			out.rows = append(out.rows, run.rows[j])
			j++
		}
	}
	return out
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
