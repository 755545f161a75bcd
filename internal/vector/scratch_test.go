package vector

import (
	"testing"

	"rumble/internal/item"
)

// TestScratchRecyclesOnlyItsOwnLanes pins the scratch's ownership rule: a
// Reset hands a column's lanes to the next column, cleared of the items
// they held; the lanes a Slice view reads are never taken; and Release
// keeps no lane wider than 4*BatchSize rows.
func TestScratchRecyclesOnlyItsOwnLanes(t *testing.T) {
	s := new(Scratch)
	arr := item.NewArray(nil)
	c := s.NewCol(BatchSize)
	for i := 0; i < BatchSize; i++ {
		c.AppendItem(arr)
	}
	items := c.Items[:cap(c.Items)]
	seg := colOf(item.Int(1), item.Str("a"), arr)
	s.Slice(seg, 0, 3)
	s.Reset()
	for i, it := range items {
		if it != nil {
			t.Fatalf("row %d of a freed Items lane still holds %v", i, it)
		}
	}
	d := s.NewCol(BatchSize)
	d.AppendItem(arr)
	if &d.Items[0] != &items[0] {
		t.Error("the next column did not reuse the freed Items lane")
	}
	for _, free := range s.tags.free {
		if cap(free) > 0 && &free[:1][0] == &seg.Tags[0] {
			t.Fatal("a view's tag lane went to the free list")
		}
	}
	for _, free := range s.items.free {
		if cap(free) > 0 && &free[:1][0] == &seg.Items[0] {
			t.Fatal("a view's Items lane went to the free list")
		}
	}

	wide := s.NewCol(8 * BatchSize)
	for i := 0; i < 8*BatchSize; i++ {
		wide.AppendInt(int64(i))
	}
	s.Release()
	for _, free := range s.tags.free {
		if cap(free) > 4*BatchSize {
			t.Errorf("Release kept a %d-row tag lane", cap(free))
		}
	}
	for _, free := range s.ints.free {
		if cap(free) > 4*BatchSize {
			t.Errorf("Release kept a %d-row int lane", cap(free))
		}
	}
}
