package orderby

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"rumble/internal/item"
)

// fuzzKey maps one fuzz byte to an order-by key: the low three bits pick
// the kind (empty, null, boolean, int, double, string, NaN or -0.0), the
// rest a small value, so ties are common and numbers meet strings.
func fuzzKey(b byte, emptyGreatest bool) item.SortKey {
	v := int64(b>>3) % 6
	switch b & 7 {
	case 0:
		if emptyGreatest {
			return item.SortKey{Tag: item.TagEmptyGreatest}
		}
		return item.SortKey{Tag: item.TagEmptyLeast}
	case 1:
		return item.SortKey{Tag: item.TagNull}
	case 2:
		if v&1 == 1 {
			return item.SortKey{Tag: item.TagTrue}
		}
		return item.SortKey{Tag: item.TagFalse}
	case 3:
		return item.IntKey(v)
	case 4:
		return item.NumberKey(float64(v) / 2)
	case 5:
		return item.SortKey{Tag: item.TagString, Str: string(rune('a' + v))}
	case 6:
		return item.NumberKey(math.NaN())
	default:
		return item.NumberKey(math.Copysign(0, -1))
	}
}

type keyedRow struct {
	keys []item.SortKey
	i    int
}

// offerAll offers rows[from:to] into b through one reused key buffer,
// storing each kept row's index; the buffer is cleared after every offer,
// so a kept row that aliased it would lose its keys.
func offerAll(b *Bounded[int], rows []keyedRow, from, to int) {
	if from >= to {
		return
	}
	buf := make([]item.SortKey, len(rows[from].keys))
	for i := from; i < to; i++ {
		copy(buf, rows[i].keys)
		if p := b.Offer(buf); p != nil {
			*p = rows[i].i
		}
		clear(buf)
	}
}

// collect returns b's kept rows in order.
func collect(b *Bounded[int]) []keyedRow {
	var out []keyedRow
	if err := b.Sorted(func(keys []item.SortKey, i int) error {
		out = append(out, keyedRow{keys, i})
		return nil
	}); err != nil {
		panic(err)
	}
	return out
}

// FuzzBoundedMatchesStable holds Bounded to "Stable, then truncate" over
// fuzzed multi-key rows (ties, NaN, -0.0, empty-least or -greatest keys,
// strings among numbers, mixed directions) and bounds from 0 past the row
// count, up to 10^15: the same rows in the same order with the same keys.
// It also holds the two-level use — the kept rows of two consecutive
// pieces of the stream, offered in piece order into a third Bounded — to
// the same answer, which is how the vector backend merges its morsels.
func FuzzBoundedMatchesStable(f *testing.F) {
	f.Add([]byte{3, 11, 19, 3, 5, 13, 0, 6, 7, 1, 2, 27}, uint8(0), uint8(2), uint16(5), uint8(0))
	f.Add([]byte{5, 3, 13, 11, 5, 3, 6, 0, 7, 4, 21, 12}, uint8(1), uint8(3), uint16(2), uint8(0x12))
	f.Add([]byte{0, 0, 8, 16, 24, 6, 7, 4, 1, 9}, uint8(2), uint8(0), uint16(9), uint8(0x35))
	f.Add([]byte{3, 11, 19, 27, 35, 43, 3, 11}, uint8(0), uint8(255), uint16(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nkeys, k uint8, split uint16, dirs uint8) {
		nk := 1 + int(nkeys)%3
		desc := make([]bool, nk)
		emptyGreatest := make([]bool, nk)
		for s := range desc {
			desc[s] = dirs>>s&1 == 1
			emptyGreatest[s] = dirs>>(s+4)&1 == 1
		}
		rows := make([]keyedRow, len(data)/nk)
		for i := range rows {
			rows[i] = keyedRow{make([]item.SortKey, nk), i}
			for s := range rows[i].keys {
				rows[i].keys[s] = fuzzKey(data[i*nk+s], emptyGreatest[s])
			}
		}
		kk := int64(k) % int64(len(rows)+3)
		if k == 255 {
			kk = 1e15
		}
		p := int(split) % (len(rows) + 1)

		want := slices.Clone(rows)
		Stable(want, func(a, b keyedRow) bool { return Compare(desc, a.keys, b.keys) < 0 })
		want = want[:min(int64(len(want)), kk)]

		check := func(what string, got []keyedRow) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s (k=%d): %d rows, want %d", what, kk, len(got), len(want))
			}
			for i := range got {
				if got[i].i != want[i].i || !slices.Equal(got[i].keys, want[i].keys) {
					t.Fatalf("%s (k=%d): row %d is %d %v, want %d %v", what, kk, i, got[i].i, got[i].keys, want[i].i, want[i].keys)
				}
			}
		}
		whole := NewBounded[int](kk, desc)
		offerAll(whole, rows, 0, len(rows))
		check("one Bounded", collect(whole))
		check("Sorted again", collect(whole))

		merged := NewBounded[int](kk, desc)
		for _, piece := range [][2]int{{0, p}, {p, len(rows)}} {
			b := NewBounded[int](kk, desc)
			offerAll(b, rows, piece[0], piece[1])
			if err := b.Sorted(func(keys []item.SortKey, i int) error {
				if s := merged.Offer(keys); s != nil {
					*s = i
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		check("pieces merged", collect(merged))
	})
}

// TestBoundedComparisonsLogLinear pins the cost of a bound at least as
// large as the stream: offering n rows and reading them back sorted takes
// at most 3·n·⌈log₂ n⌉ key comparisons, in ascending, descending, equal
// and shuffled input. An insertion into a sorted run would take about
// n²/4 on shuffled input.
func TestBoundedComparisonsLogLinear(t *testing.T) {
	const n = 4096
	logN := bits.Len(uint(n - 1))
	rng := rand.New(rand.NewSource(1))
	inputs := map[string]func(i int) int64{
		"ascending":  func(i int) int64 { return int64(i) },
		"descending": func(i int) int64 { return int64(n - i) },
		"equal":      func(int) int64 { return 7 },
		"shuffled":   func(int) int64 { return rng.Int63n(n / 4) },
	}
	for name, key := range inputs {
		for _, k := range []int64{n, 1e15} {
			b := NewBounded[int](k, []bool{false})
			calls := 0
			b.cmp = func(desc []bool, x, y []item.SortKey) int {
				calls++
				return Compare(desc, x, y)
			}
			keys := make([]item.SortKey, 1)
			for i := 0; i < n; i++ {
				keys[0] = item.IntKey(key(i))
				*b.Offer(keys) = i
			}
			rows := collect(b)
			if len(rows) != n {
				t.Fatalf("%s, k=%d: %d rows, want %d", name, k, len(rows), n)
			}
			for i := 1; i < n; i++ {
				c := rows[i-1].keys[0].Compare(rows[i].keys[0])
				if c > 0 || c == 0 && rows[i-1].i > rows[i].i {
					t.Fatalf("%s, k=%d: rows %d and %d out of order", name, k, i-1, i)
				}
			}
			if limit := 3 * n * logN; calls > limit {
				t.Errorf("%s, k=%d: %d comparisons for %d rows, want at most %d", name, k, calls, n, limit)
			}
		}
	}
}

// TestBoundedRejectsWithoutAllocating pins the saturated path: a row that
// ranks outside k costs one comparison and no allocation, and a kept row
// reuses the key storage of the row it evicts.
func TestBoundedRejectsWithoutAllocating(t *testing.T) {
	b := NewBounded[int](3, []bool{false, true})
	keys := make([]item.SortKey, 2)
	for i := range 4 {
		keys[0], keys[1] = item.IntKey(int64(i)), item.SortKey{Tag: item.TagString, Str: "m"}
		if p := b.Offer(keys); p != nil {
			*p = i
		}
	}
	keys[0], keys[1] = item.IntKey(2), item.SortKey{Tag: item.TagString, Str: "a"}
	if allocs := testing.AllocsPerRun(100, func() {
		if b.Offer(keys) != nil {
			t.Fatal("a row ranking after the bound was kept")
		}
	}); allocs != 0 {
		t.Fatalf("rejected row: %v allocations, want 0", allocs)
	}
	// AllocsPerRun runs its function once more than asked, so row 9 is
	// offered twice and evicts rows 2 and 1.
	keys[0] = item.IntKey(-1)
	if allocs := testing.AllocsPerRun(1, func() { *b.Offer(keys) = 9 }); allocs != 0 {
		t.Fatalf("evicting row: %v allocations, want 0", allocs)
	}
	var got []int
	for _, r := range collect(b) {
		got = append(got, r.i)
	}
	if !slices.Equal(got, []int{9, 9, 0}) {
		t.Fatalf("kept rows %v, want [9 9 0]", got)
	}
}

// TestBoundedNeverAllocatesByK pins that the bound sizes nothing: a bound
// of 2^63-1 over three rows allocates no more than a bound of three, and a
// zero or negative bound keeps nothing.
func TestBoundedNeverAllocatesByK(t *testing.T) {
	keys := []item.SortKey{item.IntKey(1)}
	allocs := func(k int64) float64 {
		return testing.AllocsPerRun(10, func() {
			b := NewBounded[int](k, []bool{false})
			for i := range 3 {
				*b.Offer(keys) = i
			}
		})
	}
	if huge, three := allocs(math.MaxInt64), allocs(3); huge > three {
		t.Errorf("3 rows: %v allocations under a bound of 2^63-1, %v under 3", huge, three)
	}
	for _, k := range []int64{0, -5} {
		b := NewBounded[int](k, []bool{false})
		if b.Offer(keys) != nil || len(collect(b)) != 0 {
			t.Errorf("k=%d kept a row", k)
		}
	}
}

// TestBoundedResetReusesStorage pins Reset: a Bounded that has held k rows
// keeps and evicts its next rows after a Reset without allocating, and
// keeps the same rows in the same order as a fresh one would.
func TestBoundedResetReusesStorage(t *testing.T) {
	const k = 16
	rows := make([]keyedRow, 2*k)
	for i := range rows {
		rows[i] = keyedRow{[]item.SortKey{item.IntKey(int64(i*7) % 11), item.SortKey{Tag: item.TagString, Str: "s"}}, i}
	}
	desc := []bool{true, false}
	b := NewBounded[int](k, desc)
	offerAll(b, rows, k, 2*k) // fills the storage with other rows first
	collect(b)
	if allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		offerAll(b, rows, 0, 2*k)
	}); allocs > 1 { // offerAll's key buffer
		t.Fatalf("a reset Bounded keeping %d of %d rows made %v allocations, want at most 1", k, 2*k, allocs)
	}
	fresh := NewBounded[int](k, desc)
	offerAll(fresh, rows, 0, 2*k)
	got, want := collect(b), collect(fresh)
	if len(got) != len(want) {
		t.Fatalf("reset kept %d rows, fresh %d", len(got), len(want))
	}
	for i := range got {
		if got[i].i != want[i].i || !slices.Equal(got[i].keys, want[i].keys) {
			t.Fatalf("row %d: reset kept %v, fresh %v", i, got[i], want[i])
		}
	}
}
