package keytab

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
)

// fuzzKey is key k of the fuzz's key space: runs of one of three bytes,
// NUL among them, zero to 39 long — the empty key, keys that differ only
// past a NUL, and far more than 16 keys, so tables grow.
func fuzzKey(k byte) []byte {
	return bytes.Repeat([]byte{k % 3}, int(k/3)%40)
}

// FuzzTableMatchesMap holds a Table to a map[string]int oracle: a mix of
// ID, IDBytes and Find calls, with Resets between them, gives the same ids,
// the same fresh answers, the same first-seen order and the same Keys.
func FuzzTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 3, 1, 3, 2, 4, 3, 0, 1, 3}, uint8(0))
	f.Add(bytes.Repeat([]byte{0, 7, 1, 9, 2, 7, 1, 200, 0, 121}, 30), uint8(3))
	var all []byte
	for k := 0; k < 256; k++ {
		all = append(all, byte(k%3), byte(k))
	}
	f.Add(all, uint8(8))
	f.Add(append(all, 3, 0, 2, 5, 1, 5), uint8(120))
	f.Fuzz(func(t *testing.T, ops []byte, n uint8) {
		tab := New(int(n))
		oracle := map[string]int{}
		var order []string
		for ; len(ops) >= 2; ops = ops[2:] {
			key := fuzzKey(ops[1])
			want, known := oracle[string(key)]
			if !known {
				want = len(order)
			}
			var id int32
			var fresh bool
			switch ops[0] % 4 {
			case 0:
				id, fresh = tab.ID(string(key))
			case 1:
				id, fresh = tab.IDBytes(key)
			case 2:
				if !known {
					want = -1
				}
				if got := tab.Find(key); got != int32(want) {
					t.Fatalf("Find(%q) = %d, want %d", key, got, want)
				}
				continue
			case 3:
				tab.Reset()
				clear(oracle)
				order = order[:0]
				continue
			}
			if int(id) != want || fresh == known {
				t.Fatalf("id of %q = %d, %v; want %d, %v", key, id, fresh, want, !known)
			}
			if !known {
				oracle[string(key)] = want
				order = append(order, string(key))
			}
			if tab.Len() != len(order) || tab.Key(id) != string(key) {
				t.Fatalf("after %q: %d keys, key %d = %q; want %d, %q", key, tab.Len(), id, tab.Key(id), len(order), key)
			}
		}
		if !slices.Equal(tab.Keys(), order) {
			t.Fatalf("Keys() = %q, want %q", tab.Keys(), order)
		}
	})
}

// TestHitsDoNotAllocate: looking up a key the table holds, by ID, IDBytes
// or Find, allocates nothing.
func TestHitsDoNotAllocate(t *testing.T) {
	tab := New(0)
	var keys [][]byte
	for i := 0; i < 100; i++ {
		keys = append(keys, []byte("key\x00"+strconv.Itoa(i)))
		tab.IDBytes(keys[i])
	}
	s := string(keys[42])
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if id, fresh := tab.IDBytes(k); fresh || tab.Find(k) != id {
				t.Fatal("a held key must hit")
			}
		}
		if _, fresh := tab.ID(s); fresh {
			t.Fatal("a held key must hit")
		}
	}); n != 0 {
		t.Errorf("%.1f allocations per round of hits, want 0", n)
	}
}

// TestNewBoundsGrowth: a table told of n keys holds n of them without its
// index growing, and its key list never has room for more than n.
func TestNewBoundsGrowth(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		tab := New(n)
		slots := len(tab.slots)
		for i := 0; i < n; i++ {
			tab.ID(strconv.Itoa(i))
			if cap(tab.keys) > n {
				t.Fatalf("New(%d): room for %d keys after %d", n, cap(tab.keys), i+1)
			}
		}
		if len(tab.slots) != slots {
			t.Errorf("New(%d): index grew from %d to %d slots", n, slots, len(tab.slots))
		}
		tab.ID("one more")
		if tab.Len() != n+1 || tab.Key(int32(n)) != "one more" {
			t.Errorf("New(%d): a key past n is not numbered %d", n, n)
		}
	}
}
