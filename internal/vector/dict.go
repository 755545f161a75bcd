package vector

import "sort"

// Dict is a sorted string dictionary kept as one span: every entry's bytes
// back to back in one string, and an index of end offsets into it, so its
// entries take two allocations however many there are. Entry k is
// s[off[k]:off[k+1]]. A Dict is immutable and shared by every column
// decoded from the same segment.
type Dict struct {
	s   string
	off []uint32 // Len()+1 end offsets; off[0] is 0, the last is len(s)
}

// NewDict returns the dictionary whose entries are s cut at off: off holds
// n+1 nondecreasing offsets into s, starting at 0 and ending at len(s).
// The entries must be sorted ascending and distinct. It keeps s and off.
func NewDict(s string, off []uint32) *Dict { return &Dict{s: s, off: off} }

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.off) - 1 }

// At returns entry k, a view of the dictionary's span.
func (d *Dict) At(k int) string { return d.s[d.off[k]:d.off[k+1]] }

// Search returns the rank of the first entry >= lit, Len() when there is
// none: the lower bound sort.SearchStrings gives over the entries.
func (d *Dict) Search(lit string) int {
	return sort.Search(d.Len(), func(k int) bool { return d.At(k) >= lit })
}

// Bytes returns the memory the dictionary pins: its entry bytes and its
// offset index.
func (d *Dict) Bytes() int64 { return int64(len(d.s)) + 4*int64(cap(d.off)) }
