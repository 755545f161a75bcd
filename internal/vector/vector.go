// Package vector implements the columnar local execution backend behind
// Mode=Vector: typed column batches and the batch-at-a-time kernels
// (field lookup, comparison, arithmetic, effective-boolean filters,
// grouped aggregation) the runtime compiles eligible FLWOR pipelines to.
//
// A Col holds one value per pipeline row, discriminated by a per-row Tag:
// absent (the empty sequence), null, booleans, int64s, float64s and
// strings live in flat typed arrays, while decimals, arrays and objects —
// the values a typed column cannot carry — ride in an item overflow lane
// (TagItem) and are processed row-at-a-time through the same scalar
// functions the tuple backend uses. That per-row fallback is spill-free:
// heterogeneous data never forces the batch (or the query) off the
// columnar path, it just pays scalar cost for the odd row. Gather copies
// rows by index lane to lane, so a join expands without boxing a value.
//
// A column owns only the lanes its rows use. Tags is always present; each
// typed lane is allocated, at the tag lane's capacity, when the first row
// of its kind lands, so a boolean column is one byte per row and an int
// column nine. The lane invariant is: a row of kind K lies inside lane K;
// a lane may end early (or be nil) after its last row of that kind.
// Kernels therefore read a lane only at rows whose tag names it.
//
// Grouping reuses the typed sort-key column encodings of package item
// (item.SortKey / item.AppendSortKey): two column rows land in the same
// group exactly when the tuple backend's group-by would have bucketed
// them together, so results are identical across backends — including
// NaN keys, -0.0, and integers beyond the float64-exact range.
//
// Ownership and lifetime. Each morsel worker allocates from one Scratch:
// the columns, lanes, slice-view headers, batches, masks and index
// vectors of a morsel. A batch carries its scratch (Batch.Scratch; nil is
// the heap), so every Expr.Eval, Compact and Gather over it builds on the
// same one. The scratch resets as its worker starts the next morsel, and
// goes back to a package pool when the evaluation's runner returns. Two
// rules make that safe:
//   - A scratch reuses only lanes it allocated itself. It never writes
//     into or recycles the lanes a Slice view reads (pooled segment lanes),
//     LitExpr constants or the runtime's free-variable constant columns:
//     kernels only read their inputs, and Const columns pass through.
//   - Nothing that outlives the morsel points into a lane: rows leave
//     boxed (Col.Item), group keys as items and encoded strings, sort keys
//     as item.SortKey values over immutable strings.
//
// Every kernel is one function whose scratch may be nil: Compare, the
// heap entry point other packages call, is the comparison kernel through a
// nil scratch, not a copy of it.
package vector

import (
	"fmt"
	"math"

	"rumble/internal/item"
)

// BatchSize is the number of rows the runtime packs into one batch before
// pushing it through the kernels: large enough to amortize dispatch, small
// enough to stay cache-resident.
const BatchSize = 1024

// Tag discriminates the per-row representation of a column value.
type Tag uint8

// The column value tags. TagAbsent is the zero value: a freshly extended
// column row is the empty sequence until written.
const (
	// TagAbsent marks the empty sequence: a missing object field, an
	// absorbed arithmetic operand, a filtered-out aggregate input.
	TagAbsent Tag = iota
	// TagNull is JSON null.
	TagNull
	// TagFalse and TagTrue are the booleans, kept as tags so boolean
	// columns need no value array at all.
	TagFalse
	TagTrue
	// TagInt values live in Ints.
	TagInt
	// TagDouble values live in Nums.
	TagDouble
	// TagString values live in Strs.
	TagString
	// TagItem is the overflow lane: decimals, arrays and objects live in
	// Items and are processed row-at-a-time (the spill-free fallback).
	TagItem
)

// Col is a typed column: one value per row, represented by parallel arrays
// indexed by row. A Const column holds a single logical value broadcast
// over the whole batch (row 0 is the value); kernels index it through idx.
//
// Tags covers every row. Ints, Nums, Strs and Items are lazy: each is nil
// until a row of its kind is written and may end before the last row, but
// always covers every row whose tag names it (TagInt and dictionary
// TagString rows in Ints, TagDouble in Nums, plain TagString in Strs,
// TagItem in Items).
type Col struct {
	Const bool
	Tags  []Tag
	Ints  []int64
	Nums  []float64
	Strs  []string
	Items []item.Item

	// Dict, when non-nil, makes this a dictionary string column: every
	// TagString row stores a code into Dict in the Ints lane instead of a
	// materialized string in Strs. Dict is sorted ascending and shared by
	// every column decoded from the same segment, so comparison kernels can
	// translate a literal once and compare codes. Dictionary columns are
	// read-only views produced by the segment decoder; append methods must
	// not be used on them.
	Dict []string

	// s is the scratch the column's lanes come from, nil for the heap.
	s *Scratch
}

// NewCol returns an empty column with capacity for cap rows. Only the tag
// lane is allocated; the typed lanes follow on their first row.
func NewCol(cap int) *Col {
	return &Col{Tags: make([]Tag, 0, cap)}
}

// ConstCol returns a broadcast column holding it in every row; a nil item
// broadcasts the empty sequence.
func ConstCol(it item.Item) *Col {
	c := NewCol(1)
	if it == nil {
		c.AppendAbsent()
	} else {
		c.AppendItem(it)
	}
	c.Const = true
	return c
}

// Len returns the physical row count (1 for Const columns).
func (c *Col) Len() int { return len(c.Tags) }

// idx maps a logical row to a physical row (0 for Const columns).
func (c *Col) idx(i int) int {
	if c.Const {
		return 0
	}
	return i
}

// str returns the string value of physical row i, which must be a
// TagString row: the dictionary entry for code columns, the Strs lane
// otherwise.
func (c *Col) str(i int) string {
	if c.Dict != nil {
		return c.Dict[c.Ints[i]]
	}
	return c.Strs[i]
}

// window clamps a lazy lane to rows [off, off+n): the lane may end before
// off+n (or before off), and every row of its kind inside the window stays
// covered, which is the lane's only invariant.
func window[T any](s []T, off, n int) []T {
	if len(s) <= off {
		return nil
	}
	end := min(off+n, len(s))
	return s[off:end:end]
}

// lane returns s extended to cover row i: taken from free with capacity
// capHint on the first row of its kind, zero-padded over the rows of other
// kinds in between.
func lane[T any](s []T, free *lanes[T], i, capHint int) []T {
	if s == nil {
		s = free.get(max(capHint, i+1))
	}
	var zero T
	for len(s) <= i {
		s = append(s, zero)
	}
	return s
}

// grow appends one absent row. Only the tag lane grows; a typed lane grows
// when a row of its kind is written.
func (c *Col) grow() int {
	c.Tags = append(c.Tags, TagAbsent)
	return len(c.Tags) - 1
}

// setInt, setNum, setStr and setItem write row i's tag and its value into
// the lane that tag names, allocating the lane on first use; setBool
// writes a tag alone.
func (c *Col) setInt(i int, v int64) {
	c.Tags[i] = TagInt
	c.Ints = lane(c.Ints, c.s.intLanes(), i, cap(c.Tags))
	c.Ints[i] = v
}

func (c *Col) setNum(i int, v float64) {
	c.Tags[i] = TagDouble
	c.Nums = lane(c.Nums, c.s.numLanes(), i, cap(c.Tags))
	c.Nums[i] = v
}

func (c *Col) setStr(i int, v string) {
	c.Tags[i] = TagString
	c.Strs = lane(c.Strs, c.s.strLanes(), i, cap(c.Tags))
	c.Strs[i] = v
}

func (c *Col) setItem(i int, it item.Item) {
	c.Tags[i] = TagItem
	c.Items = lane(c.Items, c.s.itemLanes(), i, cap(c.Tags))
	c.Items[i] = it
}

func (c *Col) setBool(i int, b bool) {
	if b {
		c.Tags[i] = TagTrue
	} else {
		c.Tags[i] = TagFalse
	}
}

// SetItem overwrites existing row i with it, routing it to its typed lane;
// a nil item makes the row absent. A dictionary column's string rows are
// codes in Ints, so a string must not be written to one through SetItem.
func (c *Col) SetItem(i int, it item.Item) {
	switch v := it.(type) {
	case nil:
		c.Tags[i] = TagAbsent
	case item.Null:
		c.Tags[i] = TagNull
	case item.Bool:
		c.setBool(i, bool(v))
	case item.Int:
		c.setInt(i, int64(v))
	case item.Double:
		c.setNum(i, float64(v))
	case item.Str:
		c.setStr(i, string(v))
	default:
		c.setItem(i, it)
	}
}

// AppendAbsent appends an empty-sequence row.
func (c *Col) AppendAbsent() { c.grow() }

// AppendItem appends one item, routing it to its typed lane. A nil item
// appends the empty sequence.
func (c *Col) AppendItem(it item.Item) { c.SetItem(c.grow(), it) }

// AppendInt appends a present integer row.
func (c *Col) AppendInt(v int64) { c.setInt(c.grow(), v) }

// AppendDouble appends a present double row.
func (c *Col) AppendDouble(v float64) { c.setNum(c.grow(), v) }

// AppendBool appends a present boolean row.
func (c *Col) AppendBool(b bool) { c.setBool(c.grow(), b) }

// Item decodes row i back into an item; nil means the row is absent (the
// empty sequence). Decoding boxes scalar lanes, so kernels avoid it on hot
// paths and reserve it for yields and the overflow lane.
func (c *Col) Item(i int) item.Item {
	i = c.idx(i)
	switch c.Tags[i] {
	case TagAbsent:
		return nil
	case TagNull:
		return item.Null{}
	case TagFalse:
		return item.Bool(false)
	case TagTrue:
		return item.Bool(true)
	case TagInt:
		return item.Int(c.Ints[i])
	case TagDouble:
		return item.Double(c.Nums[i])
	case TagString:
		return item.Str(c.str(i))
	default:
		return c.Items[i]
	}
}

// SortKey encodes row i with the shared typed key encoding, exactly as
// item.EncodeSortKey would encode the row's item; non-atomic overflow rows
// return EncodeSortKey's error.
func (c *Col) SortKey(i int) (item.SortKey, error) {
	i = c.idx(i)
	switch c.Tags[i] {
	case TagAbsent:
		return item.SortKey{Tag: item.TagEmptyLeast}, nil
	case TagNull:
		return item.SortKey{Tag: item.TagNull}, nil
	case TagFalse:
		return item.SortKey{Tag: item.TagFalse}, nil
	case TagTrue:
		return item.SortKey{Tag: item.TagTrue}, nil
	case TagInt:
		return item.IntKey(c.Ints[i]), nil
	case TagDouble:
		return item.NumberKey(c.Nums[i]), nil
	case TagString:
		return item.SortKey{Tag: item.TagString, Str: c.str(i)}, nil
	default:
		return item.EncodeSortKey([]item.Item{c.Items[i]}, false)
	}
}

// Kind returns the JSONiq kind name of row i, for error messages matching
// the tuple backend's wording. The row must be present.
func (c *Col) Kind(i int) item.Kind {
	i = c.idx(i)
	switch c.Tags[i] {
	case TagNull:
		return item.KindNull
	case TagFalse, TagTrue:
		return item.KindBoolean
	case TagInt:
		return item.KindInteger
	case TagDouble:
		return item.KindDouble
	case TagString:
		return item.KindString
	default:
		return c.Items[i].Kind()
	}
}

// atomic reports whether present row i is an atomic item.
func (c *Col) atomic(i int) bool {
	i = c.idx(i)
	if c.Tags[i] != TagItem {
		return true
	}
	return item.IsAtomic(c.Items[i])
}

// EBV computes the effective boolean value of row i under single-item EBV
// rules (absent is false); it mirrors item.EffectiveBoolean, which never
// errors on a single item.
func (c *Col) EBV(i int) bool {
	i = c.idx(i)
	switch c.Tags[i] {
	case TagAbsent, TagNull, TagFalse:
		return false
	case TagTrue:
		return true
	case TagInt:
		return c.Ints[i] != 0
	case TagDouble:
		return c.Nums[i] != 0 && !math.IsNaN(c.Nums[i])
	case TagString:
		return c.str(i) != ""
	default:
		b, _ := item.EffectiveBoolean([]item.Item{c.Items[i]})
		return b
	}
}

// copyRow writes physical row i of src into existing row j of c, typed
// lane to typed lane; dictionary codes travel in Ints, so c must share
// src's Dict.
func (c *Col) copyRow(j int, src *Col, i int) {
	switch t := src.Tags[i]; t {
	case TagInt:
		c.setInt(j, src.Ints[i])
	case TagDouble:
		c.setNum(j, src.Nums[i])
	case TagString:
		if src.Dict != nil {
			c.setInt(j, src.Ints[i])
			c.Tags[j] = TagString
		} else {
			c.setStr(j, src.Strs[i])
		}
	case TagItem:
		c.setItem(j, src.Items[i])
	default:
		c.Tags[j] = t
	}
}

// errNonAtomic builds the "<context> requires an atomic item" error with
// the tuple backend's wording.
func errNonAtomic(what string, k item.Kind) error {
	return fmt.Errorf("%s requires an atomic item, got %s", what, k)
}
