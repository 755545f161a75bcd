// Package keytab numbers keys: a Table maps each distinct key to a dense
// int32 id in first-seen order, for group-bys, join builds, distinct-values
// and segment dictionaries, which keep their payloads in slices by id.
package keytab

import (
	"hash/maphash"
	"math/bits"
)

// Table numbers keys in order of first occurrence. Its index is open
// addressing with linear probes, an entry being a key's id plus one, zero
// when free. The index doubles before it passes half full, so a probe
// always ends; a hit is confirmed against the key its id names.
type Table struct {
	slots []int32
	keys  []string // by id
	limit int      // the keys New was told of: keys grows no roomier until they are passed
}

// seed hashes keys into slots. Ids follow first occurrence: it never shows.
var seed = maphash.MakeSeed()

const minSlots = 16 // the smallest index, and the first room keys gets

// New returns a table sized for n keys: up to n of them, its index never
// grows and its key list never holds room for more than n.
func New(n int) *Table {
	return &Table{slots: make([]int32, max(minSlots, 2*n)), keys: make([]string, 0, min(minSlots, n)), limit: n}
}

// ID returns the id of key and whether key is new, numbering it if so.
// The table keeps key itself.
func (t *Table) ID(key string) (int32, bool) { return number(t, maphash.String(seed, key), key) }

// IDBytes is ID for a key held in bytes, which the table copies once, when
// the key is new.
func (t *Table) IDBytes(key []byte) (int32, bool) { return number(t, maphash.Bytes(seed, key), key) }

// Find returns the id of key, or -1 when the table has not numbered it.
func (t *Table) Find(key []byte) int32 {
	id, _ := find(t, maphash.Bytes(seed, key), key)
	return id
}

// Key returns the key numbered id.
func (t *Table) Key(id int32) string { return t.keys[id] }

// Keys returns every key, indexed by id. The slice is the table's own.
func (t *Table) Keys() []string { return t.keys }

// Len returns the number of keys.
func (t *Table) Len() int { return len(t.keys) }

// Reset forgets every key, keeping the table's storage.
func (t *Table) Reset() {
	clear(t.slots)
	clear(t.keys)
	t.keys = t.keys[:0]
}

// Grow returns s with room for n more elements, doubling its capacity when
// it has none: a slice kept by id then allocates about twice its final size
// in all, where append's growth past 256 elements allocates five times it.
func Grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, 2*cap(s)+n), s...)
	}
	return s
}

// find returns the id of key, whose hash is h, or -1 and the free slot
// where the key belongs.
func find[K string | []byte](t *Table, h uint64, key K) (int32, uint64) {
	// The hash's high bits scaled to the index: a slot for any index size.
	i, _ := bits.Mul64(h, uint64(len(t.slots)))
	for e := t.slots[i]; e != 0; e = t.slots[i] {
		if t.keys[e-1] == string(key) {
			return e - 1, i
		}
		if i++; i == uint64(len(t.slots)) {
			i = 0
		}
	}
	return -1, i
}

// number returns the id of key, whose hash is h, numbering it if it is new.
func number[K string | []byte](t *Table, h uint64, key K) (int32, bool) {
	id, i := find(t, h, key)
	if id >= 0 {
		return id, false
	}
	if n := len(t.keys); n == cap(t.keys) && n < t.limit {
		// Never room for more keys than New was told of, until they come.
		t.keys = append(make([]string, 0, min(max(2*n, minSlots), t.limit)), t.keys...)
	}
	t.keys = append(Grow(t.keys, 1), string(key))
	t.slots[i] = int32(len(t.keys))
	if 2*len(t.keys) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		for id, k := range t.keys {
			_, i := find(t, maphash.String(seed, k), k)
			t.slots[i] = int32(id + 1)
		}
	}
	return int32(len(t.keys) - 1), true
}
