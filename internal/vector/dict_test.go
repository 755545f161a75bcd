package vector

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// dictOf builds the Dict of sorted, distinct entries, the way the segment
// decoder does: their bytes back to back in one string, cut at end offsets.
func dictOf(entries ...string) *Dict {
	off := make([]uint32, len(entries)+1)
	for i, e := range entries {
		off[i+1] = off[i] + uint32(len(e))
	}
	return NewDict(strings.Join(entries, ""), off)
}

// splitEntries cuts raw into strings: each takes its length from one byte
// (mod 8) and then that many bytes, so entries may be empty, hold NUL and
// be invalid UTF-8.
func splitEntries(raw []byte) []string {
	var out []string
	for len(raw) > 0 {
		n := min(int(raw[0])%8, len(raw)-1)
		out = append(out, string(raw[1:1+n]))
		raw = raw[1+n:]
	}
	return out
}

// FuzzDictMatchesStrings holds a Dict to the sorted []string it was built
// from: the same Len and At, and Search equal to sort.SearchStrings for
// literals before, at, between and after its entries.
func FuzzDictMatchesStrings(f *testing.F) {
	f.Add([]byte{0, 1, 'a', 2, 'a', 0, 3, 'b', 0xff, 0xfe}, []byte{1, 'a', 2, 'a', 'a'})
	f.Add([]byte{}, []byte{0, 1, 0})
	f.Add([]byte{1, 0, 1, 0x80, 4, 'z', 'z', 'z', 'z'}, []byte{2, 0xc3, 0x28})
	f.Fuzz(func(t *testing.T, rawEntries, rawLits []byte) {
		entries := splitEntries(rawEntries)
		slices.Sort(entries)
		entries = slices.Compact(entries)
		d := dictOf(entries...)
		if d.Len() != len(entries) {
			t.Fatalf("Len %d, want %d", d.Len(), len(entries))
		}
		lits := append(splitEntries(rawLits), "", "\xff\xff\xff\xff\xff\xff\xff\xff\xff")
		for k, e := range entries {
			if got := d.At(k); got != e {
				t.Fatalf("At(%d) = %q, want %q", k, got, e)
			}
			lits = append(lits, e, e+"\x00", e+"\xff")
			if e != "" {
				lits = append(lits, e[:len(e)-1])
			}
		}
		for _, lit := range lits {
			if got, want := d.Search(lit), sort.SearchStrings(entries, lit); got != want {
				t.Fatalf("Search(%q) = %d, want %d over %q", lit, got, want, entries)
			}
		}
		if got, want := d.Bytes(), int64(len(strings.Join(entries, ""))+4*(len(entries)+1)); got != want {
			t.Fatalf("Bytes %d, want %d", got, want)
		}
	})
}
