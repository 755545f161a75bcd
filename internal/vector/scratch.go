package vector

import (
	"sync"

	"rumble/internal/item"
)

// Scratch is one morsel worker's allocator for everything that dies with
// the morsel: column headers and their lanes, slice-view headers, batches,
// masks and index vectors. Reset makes all of it free again, so a worker's
// second morsel reuses the first one's lanes instead of allocating its own
// (X100's per-operator vector buffers, Boncz, Zukowski and Nes, CIDR 2005).
//
// A nil *Scratch is the heap: every method allocates as the package-level
// constructors do, and what it returns is garbage-collected as usual.
//
// Only lanes the scratch allocated itself are ever recycled: those of the
// columns NewCol handed out (and of the kernel outputs built on them).
// Slice views share the lanes they were cut from, which may be pooled
// segment lanes; a view's header is recycled, never its lanes.
type Scratch struct {
	owned   []*Col // handed out since the last Reset, lanes included
	views   []*Col // handed out since the last Reset, lanes foreign
	spare   []*Col // recycled headers
	batches []*Batch
	spareB  []*Batch
	slots   []*Col // the slot vectors Cols hands out, cut one after another

	tags  lanes[Tag]
	ints  lanes[int64]
	nums  lanes[float64]
	strs  lanes[string]
	items lanes[item.Item]
	bools lanes[bool]
	idx   lanes[int32]
}

// lanes is the free list of one lane type. Column lanes come back through
// their column at Reset; masks and index vectors handed out directly are
// tracked in used until then.
type lanes[T any] struct {
	free, used [][]T
}

// get returns an empty lane with room for n rows: the most recently freed
// one that fits, else a new one of at least BatchSize rows, so that any
// lane the scratch holds serves any morsel-sized request. A nil list
// allocates exactly n.
func (l *lanes[T]) get(n int) []T {
	if l == nil {
		return make([]T, 0, n)
	}
	for i := len(l.free) - 1; i >= 0; i-- {
		if s := l.free[i]; cap(s) >= n {
			last := len(l.free) - 1
			l.free[i], l.free[last] = l.free[last], nil
			l.free = l.free[:last]
			return s
		}
	}
	return make([]T, 0, max(n, BatchSize))
}

// take is get for a lane handed out directly: Reset frees it.
func (l *lanes[T]) take(n int) []T {
	s := l.get(n)
	l.used = append(l.used, s)
	return s
}

// put frees lane s (nil is ignored).
func (l *lanes[T]) put(s []T) {
	if cap(s) > 0 {
		l.free = append(l.free, s[:0])
	}
}

// reclaim frees every lane take handed out, each filled with fill first
// when poisoning.
func (l *lanes[T]) reclaim(fill T) {
	for i, s := range l.used {
		if Poison {
			fillCap(s, fill)
		}
		l.put(s)
		l.used[i] = nil
	}
	l.used = l.used[:0]
}

// trim drops the free lanes longer than maxRows, so one wide join expansion
// does not stay pinned.
func (l *lanes[T]) trim(maxRows int) {
	kept := l.free[:0]
	for _, s := range l.free {
		if cap(s) <= maxRows {
			kept = append(kept, s)
		}
	}
	clear(l.free[len(kept):])
	l.free = kept
}

// fillCap overwrites all of s's backing array, up to its capacity.
func fillCap[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// The sentinels a poisoning Reset fills recycled lanes with. A stale read
// of a tag finds TagItem over a nil Items lane and panics.
const (
	poisonTag = TagItem
	poisonInt = -1 << 63
	poisonStr = "\x00poison"
)

// scratches keeps released scratches warm across evaluations, as jparse
// keeps its decoders.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a reset scratch from the package pool.
func GetScratch() *Scratch { return scratches.Get().(*Scratch) }

// Release resets s, drops its lanes longer than 4*BatchSize rows and
// returns it to the package pool. Nothing s handed out may be used after.
func (s *Scratch) Release() {
	s.Reset()
	const maxRows = 4 * BatchSize
	s.tags.trim(maxRows)
	s.ints.trim(maxRows)
	s.nums.trim(maxRows)
	s.strs.trim(maxRows)
	s.items.trim(maxRows)
	s.bools.trim(maxRows)
	s.idx.trim(maxRows)
	scratches.Put(s)
}

// Reset frees everything s handed out since the last Reset: nothing of it
// may be read again. String and item lanes are cleared, so a free lane
// keeps no value alive. Under the vectorpoison build tag, every freed lane
// is instead filled with sentinels and the freed headers keep pointing at
// them (Items aside, which drops to nil), so a stale read returns garbage
// or panics rather than a plausible value.
func (s *Scratch) Reset() {
	for i, c := range s.owned {
		s.recycle(c)
		s.owned[i] = nil
	}
	s.owned = s.owned[:0]
	for i, c := range s.views {
		if !Poison {
			*c = Col{}
			s.spare = append(s.spare, c)
		}
		s.views[i] = nil
	}
	s.views = s.views[:0]
	for i, b := range s.batches {
		*b = Batch{}
		if !Poison {
			s.spareB = append(s.spareB, b)
		}
		s.batches[i] = nil
	}
	s.batches = s.batches[:0]
	clear(s.slots)
	s.slots = s.slots[:0]
	s.bools.reclaim(true)
	s.idx.reclaim(-1 << 31)
}

// recycle frees an owned column's lanes and, unless poisoning, its header.
func (s *Scratch) recycle(c *Col) {
	if Poison {
		fillCap(c.Tags, poisonTag)
		fillCap(c.Ints, poisonInt)
		fillCap(c.Nums, poisonInt)
		fillCap(c.Strs, poisonStr)
		fillCap(c.Items, nil)
	} else {
		clear(c.Strs)
		clear(c.Items)
	}
	s.tags.put(c.Tags)
	s.ints.put(c.Ints)
	s.nums.put(c.Nums)
	s.strs.put(c.Strs)
	s.items.put(c.Items)
	if Poison {
		c.Items = nil
		return
	}
	*c = Col{}
	s.spare = append(s.spare, c)
}

// header returns a blank column header recorded in list.
func (s *Scratch) header(list *[]*Col) *Col {
	var c *Col
	if n := len(s.spare); n > 0 {
		c = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	} else {
		c = new(Col)
	}
	*list = append(*list, c)
	return c
}

// The typed lane lists a column allocates from on its first row of a kind;
// nil (the heap) for a column of no scratch.
func (s *Scratch) intLanes() *lanes[int64] {
	if s == nil {
		return nil
	}
	return &s.ints
}

func (s *Scratch) numLanes() *lanes[float64] {
	if s == nil {
		return nil
	}
	return &s.nums
}

func (s *Scratch) strLanes() *lanes[string] {
	if s == nil {
		return nil
	}
	return &s.strs
}

func (s *Scratch) itemLanes() *lanes[item.Item] {
	if s == nil {
		return nil
	}
	return &s.items
}

// NewCol returns an empty column with room for n rows whose lanes come
// from s.
func (s *Scratch) NewCol(n int) *Col {
	if s == nil {
		return NewCol(n)
	}
	c := s.header(&s.owned)
	c.Tags = s.tags.get(n)
	c.s = s
	return c
}

// Sequence returns the int column start, start+1, ..., start+n-1.
func (s *Scratch) Sequence(start int64, n int) *Col {
	c := s.NewCol(n)
	for i := 0; i < n; i++ {
		c.AppendInt(start + int64(i))
	}
	return c
}

// Slice returns a read-only view of c's rows [off, off+n) sharing c's
// lanes (and dictionary). Const columns pass through: they broadcast over
// any row range.
func (s *Scratch) Slice(c *Col, off, n int) *Col {
	if c.Const {
		return c
	}
	var v *Col
	if s == nil {
		v = new(Col)
	} else {
		v = s.header(&s.views)
	}
	*v = Col{
		Tags:  c.Tags[off : off+n : off+n],
		Ints:  window(c.Ints, off, n),
		Nums:  window(c.Nums, off, n),
		Strs:  window(c.Strs, off, n),
		Items: window(c.Items, off, n),
		Dict:  c.Dict,
	}
	return v
}

// Batch returns a batch of n rows with slots unbound slots whose columns
// and masks will come from s.
func (s *Scratch) Batch(n, slots int) *Batch {
	if s == nil {
		return &Batch{N: n, Cols: make([]*Col, slots)}
	}
	var b *Batch
	if k := len(s.spareB); k > 0 {
		b = s.spareB[k-1]
		s.spareB[k-1] = nil
		s.spareB = s.spareB[:k-1]
	} else {
		b = new(Batch)
	}
	s.batches = append(s.batches, b)
	*b = Batch{N: n, Cols: s.Cols(slots), Scratch: s}
	return b
}

// Cols returns n nil column pointers: a batch's slots, or the columns of
// a list of expressions.
func (s *Scratch) Cols(n int) []*Col {
	if s == nil {
		return make([]*Col, n)
	}
	k := len(s.slots)
	if k+n > cap(s.slots) {
		// Vectors handed out before keep the old array.
		s.slots, k = make([]*Col, 0, max(2*cap(s.slots), n, 64)), 0
	}
	s.slots = s.slots[:k+n]
	return s.slots[k : k+n : k+n]
}

// Bools returns n false flags: a filter mask.
func (s *Scratch) Bools(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	b := s.bools.take(n)[:n]
	clear(b)
	return b
}

// Int32s returns an empty index vector with room for n entries.
func (s *Scratch) Int32s(n int) []int32 {
	if s == nil {
		return make([]int32, 0, n)
	}
	return s.idx.take(n)
}

// Compact returns column c restricted to the rows where keep is true
// (kept of them, in order). Const columns pass through unchanged: they
// broadcast over whatever batch length remains.
func (s *Scratch) Compact(c *Col, keep []bool, kept int) *Col {
	if c.Const {
		return c
	}
	out := s.NewCol(kept)
	out.Dict = c.Dict
	for i, k := range keep {
		if k {
			out.copyRow(out.grow(), c, i)
		}
	}
	return out
}

// Gather returns the column whose row j is row idx[j] of c, copied lane to
// lane so no value is boxed; indices may repeat and come in any order.
// Dictionary columns keep their Dict. Const columns pass through unchanged,
// as in Compact.
func (s *Scratch) Gather(c *Col, idx []int32) *Col {
	if c.Const {
		return c
	}
	out := s.NewCol(len(idx))
	out.Dict = c.Dict
	for _, i := range idx {
		out.copyRow(out.grow(), c, int(i))
	}
	return out
}
