package vector

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"rumble/internal/item"
)

// SortSpec is one order-by key direction. Empty-sequence placement is baked
// into the key encoding (OrderKey), so the spec only carries the direction.
type SortSpec struct {
	Descending bool
}

// OrderKey encodes row i as an order-by key with the tuple backend's
// semantics: the empty sequence sorts least (or greatest under "empty
// greatest"), and non-atomic rows error with the tuple order-by wording.
func (c *Col) OrderKey(i int, emptyGreatest bool) (item.SortKey, error) {
	j := c.idx(i)
	switch c.Tags[j] {
	case TagAbsent:
		if emptyGreatest {
			return item.SortKey{Tag: item.TagEmptyGreatest}, nil
		}
		return item.SortKey{Tag: item.TagEmptyLeast}, nil
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
		it := c.Items[j]
		if !item.IsAtomic(it) {
			// The tuple order-by's pre-encoding wording.
			return item.SortKey{}, fmt.Errorf("key is a non-atomic %s item", it.Kind())
		}
		return item.EncodeSortKey([]item.Item{it}, emptyGreatest)
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
	specs []SortSpec
	rows  []sortRow
}

// NewSortRows returns an empty run ordered by specs.
func NewSortRows(specs []SortSpec) *SortRows {
	return &SortRows{specs: specs}
}

// Append adds one row (keys in spec order, vals indexed by pipeline slot).
func (r *SortRows) Append(keys []item.SortKey, vals []item.Item) {
	r.rows = append(r.rows, sortRow{keys: keys, vals: vals})
}

// Len returns the number of rows in the run.
func (r *SortRows) Len() int { return len(r.rows) }

// AppendTopK inserts one row into a run kept sorted and bounded at k rows —
// the fused top-k morsel path. Insertion is stable (a row ties after the
// equal rows already present, preserving scan order), so the bounded run is
// exactly the first k rows of Append-all + Sort + Truncate(k). vals is only
// called when the row survives, so the tail of the scan is never
// materialized; the common case once the run saturates is a single
// comparison against the current k-th row.
//
// keys is only read during the call: AppendTopK copies it when the row is
// kept, so the caller may reuse one key buffer for every row, and a row
// that ranks outside k costs no allocation.
func (r *SortRows) AppendTopK(keys []item.SortKey, k int, vals func() []item.Item) {
	if len(r.rows) >= k && compareKeys(r.specs, keys, r.rows[k-1].keys) >= 0 {
		return
	}
	keys = slices.Clone(keys)
	lo, hi := 0, len(r.rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareKeys(r.specs, r.rows[mid].keys, keys) <= 0 {
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

// compareKeys orders two key tuples under specs: per spec a three-way
// SortKey comparison, with descending specs flipped — the same comparator
// the tuple backend's sort.SliceStable uses.
func compareKeys(specs []SortSpec, a, b []item.SortKey) int {
	for s := range specs {
		c := a[s].Compare(b[s])
		if c == 0 {
			continue
		}
		if specs[s].Descending {
			return -c
		}
		return c
	}
	return 0
}

// Sort stably sorts the run; equal keys keep their append (scan) order.
func (r *SortRows) Sort() {
	sort.SliceStable(r.rows, func(i, j int) bool {
		return compareKeys(r.specs, r.rows[i].keys, r.rows[j].keys) < 0
	})
}

// Truncate keeps only the first k rows of the run.
func (r *SortRows) Truncate(k int) {
	if k < len(r.rows) {
		r.rows = r.rows[:k]
	}
}

// MergeTopK merges a later sorted run into the accumulated top-k, keeping
// at most k rows. acc wins ties: its rows come from earlier morsels, so the
// bounded result is exactly the first k rows of the full stable sort.
func MergeTopK(acc, run *SortRows, k int) *SortRows {
	out := NewSortRows(acc.specs)
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
		case compareKeys(acc.specs, acc.rows[i].keys, run.rows[j].keys) <= 0:
			out.rows = append(out.rows, acc.rows[i])
			i++
		default:
			out.rows = append(out.rows, run.rows[j])
			j++
		}
	}
	return out
}

// mergeHeap is the k-way merge frontier: one cursor per non-empty run,
// ordered by (keys, run index) so equal keys drain lower-indexed (earlier
// morsel) runs first — the stable-sort tie rule.
type mergeHeap struct {
	specs []SortSpec
	runs  []*SortRows
	heads []mergeCursor
}

type mergeCursor struct {
	run int
	pos int
}

func (h *mergeHeap) Len() int { return len(h.heads) }

func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.heads[i], h.heads[j]
	c := compareKeys(h.specs, h.runs[a.run].rows[a.pos].keys, h.runs[b.run].rows[b.pos].keys)
	if c != 0 {
		return c < 0
	}
	return a.run < b.run
}

func (h *mergeHeap) Swap(i, j int) { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }

func (h *mergeHeap) Push(x any) { h.heads = append(h.heads, x.(mergeCursor)) }

func (h *mergeHeap) Pop() any {
	old := h.heads
	n := len(old)
	x := old[n-1]
	h.heads = old[:n-1]
	return x
}

// MergeRuns k-way-merges sorted runs (indexed in morsel order) and calls
// emit once per row with its slot values, in globally sorted order.
func MergeRuns(runs []*SortRows, emit func(vals []item.Item) error) error {
	var specs []SortSpec
	for _, r := range runs {
		if r != nil {
			specs = r.specs
			break
		}
	}
	h := &mergeHeap{specs: specs, runs: runs}
	for ri, r := range runs {
		if r != nil && len(r.rows) > 0 {
			h.heads = append(h.heads, mergeCursor{run: ri})
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		cur := h.heads[0]
		if err := emit(h.runs[cur.run].rows[cur.pos].vals); err != nil {
			return err
		}
		if cur.pos+1 < len(h.runs[cur.run].rows) {
			h.heads[0].pos++
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return nil
}
