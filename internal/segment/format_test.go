package segment

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"rumble/internal/item"
)

// itemsEqual is exact deep equality: Double compares by IEEE bits (so
// -0.0 != +0.0 and NaN == NaN) and Dec by big.Rat value, the two places
// canonical JSON rendering would blur.
func itemsEqual(a, b item.Item) bool {
	switch x := a.(type) {
	case item.Null:
		_, ok := b.(item.Null)
		return ok
	case item.Bool:
		y, ok := b.(item.Bool)
		return ok && x == y
	case item.Int:
		y, ok := b.(item.Int)
		return ok && x == y
	case item.Double:
		y, ok := b.(item.Double)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case item.Dec:
		y, ok := b.(item.Dec)
		return ok && x.Rat().Cmp(y.Rat()) == 0
	case item.Str:
		y, ok := b.(item.Str)
		return ok && x == y
	case *item.Array:
		y, ok := b.(*item.Array)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if !itemsEqual(x.Member(i), y.Member(i)) {
				return false
			}
		}
		return true
	case *item.Object:
		y, ok := b.(*item.Object)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for i, k := range x.Keys() {
			if y.Keys()[i] != k || !itemsEqual(x.ValueAt(i), y.ValueAt(i)) {
				return false
			}
		}
		return true
	}
	return false
}

func obj(pairs ...any) *item.Object {
	keys := make([]string, 0, len(pairs)/2)
	values := make([]item.Item, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		keys = append(keys, pairs[i].(string))
		values = append(values, pairs[i+1].(item.Item))
	}
	return item.NewObject(keys, values)
}

func dec(s string) item.Item {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic("bad rat " + s)
	}
	return item.NewDecimal(r)
}

// roundTripRows is the shared fixture: every value kind the format must
// carry, plus the shapes that force the overflow path.
func roundTripRows() []item.Item {
	return []item.Item{
		obj("a", item.Int(1), "b", item.Str("x")),
		obj("a", item.Int(-42), "c", item.Double(3.5)),
		obj("a", item.Null{}, "b", item.Bool(true), "d", item.Bool(false)),
		obj("a", item.Double(math.Copysign(0, -1))), // -0.0 must keep its sign bit
		obj("a", item.Double(math.Inf(1)), "b", item.Double(math.NaN())),
		obj("dec", dec("10000000000000001/10000000000000000")), // sub-ulp decimal
		obj("dec", dec("2"), "a", item.Int(2)),                 // integral decimal stays Dec
		obj("nested", item.NewArray([]item.Item{item.Int(1), obj("k", item.Str("v"))})),
		obj("s", item.Str(""), "u", item.Str("héllo\x00wörld")),
		obj("big", item.Int(math.MaxInt64), "small", item.Int(math.MinInt64)),
		obj(), // empty object
		obj("dup", item.Int(1), "dup", item.Int(2)), // duplicate keys -> overflow row
		item.NewArray([]item.Item{item.Int(7)}),     // non-object rows -> overflow
		item.Int(99),
		item.Str("bare string"),
		item.Null{},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := map[string][]item.Item{
		"mixed":     roundTripRows(),
		"empty":     {},
		"one":       {obj("g", item.Int(0), "v", item.Int(10))},
		"uniform":   {obj("g", item.Int(1)), obj("g", item.Int(2)), obj("g", item.Int(3))},
		"disjoint":  {obj("a", item.Int(1)), obj("b", item.Str("x")), obj("c", item.Null{})},
		"overflows": {item.Int(1), item.Str("two"), item.NewArray(nil)},
	}
	full := make([]item.Item, Rows)
	for i := range full {
		full[i] = obj("g", item.Int(i%7), "v", item.Int(i))
	}
	cases["full-capacity"] = full

	// Sparse/wide shapes — few rows, many distinct keys — are valid
	// segments too (a tail segment of heterogeneous data looks exactly
	// like this); Decode must accept every byte image Encode produces.
	wideRow := func(n, off int) item.Item {
		keys := make([]string, n)
		values := make([]item.Item, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%04d", off+i)
			values[i] = item.Int(off + i)
		}
		return item.NewObject(keys, values)
	}
	cases["one-row-200-cols"] = []item.Item{wideRow(200, 0)}
	sparse := make([]item.Item, 10)
	for i := range sparse {
		sparse[i] = wideRow(100, i*100) // disjoint keys: 1000 columns, 10 rows
	}
	cases["sparse-wide"] = sparse
	// One column set, three key orders: a row's shape, not the column
	// dictionary, decides the order its keys come back in.
	cases["key-order"] = []item.Item{
		obj("a", item.Int(1), "b", item.Int(2)),
		obj("b", item.Int(3), "a", item.Int(4)),
		obj("c", item.Str("x"), "b", item.Int(5), "a", item.Int(6)),
		obj("a", item.Int(7), "b", item.Int(8)),
	}

	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			data, zones, err := Encode(rows)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			dec, err := Decode("t.rseg", data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if len(dec.Rows) != len(rows) {
				t.Fatalf("decoded %d rows, want %d", len(dec.Rows), len(rows))
			}
			for i := range rows {
				if !itemsEqual(rows[i], dec.Rows[i]) {
					t.Errorf("row %d: decoded %v, want %v", i, dec.Rows[i], rows[i])
				}
			}
			// The engine's path: every column as lanes, rows assembled late
			// from them — item for item the input, and each lane's recomputed
			// zone map the one ingest records.
			var fields []string
			for _, cz := range zones {
				fields = append(fields, cz.Name)
			}
			cs, err := DecodeColumns("t.rseg", data, fields)
			if err != nil {
				t.Fatalf("DecodeColumns: %v", err)
			}
			for i := range rows {
				got, err := cs.Row(i)
				if err != nil {
					t.Fatalf("Row(%d): %v", i, err)
				}
				if !itemsEqual(rows[i], got) {
					t.Errorf("row %d: assembled %v, want %v", i, got, rows[i])
				}
			}
			for _, cz := range zones {
				if z := zoneOfLaneCol(cs.Col(cz.Name)); !zoneEqual(z, cz.Zone) {
					t.Errorf("column %s: lane zone map %+v, ingest recorded %+v", cz.Name, z, cz.Zone)
				}
			}
		})
	}
}

// expectedField is the item a projected column must surface for one row:
// the first value under key f of an object row, absent otherwise — the
// same contract a per-row object lookup implements.
func expectedField(row item.Item, f string) item.Item {
	o, ok := row.(*item.Object)
	if !ok {
		return nil
	}
	v, ok := o.Get(f)
	if !ok {
		return nil
	}
	return v
}

// TestDecodeColumnsMatchesLookup pins the projected decoder against the
// row decoder: for every corpus image and every field (plus one the
// segment lacks), DecodeColumns must surface exactly the items a per-row
// field lookup over Decode's rows yields — including dictionary string
// lanes, NaN/-0.0 doubles, non-UTF-8 strings, and overflow rows.
func TestDecodeColumnsMatchesLookup(t *testing.T) {
	cases := map[string][]item.Item{
		"mixed":     roundTripRows(),
		"empty":     {},
		"uniform":   {obj("g", item.Int(1)), obj("g", item.Int(2)), obj("g", item.Int(3))},
		"overflows": {item.Int(1), item.Str("two"), item.NewArray(nil)},
	}
	// Overflow row mid-segment surrounded by lane rows: projected string
	// columns must serve the dup-key row's fields through the dictionary.
	mid := make([]item.Item, 0, 64)
	for i := 0; i < 64; i++ {
		if i == 31 {
			mid = append(mid, obj("s", item.Str("dup1"), "s", item.Str("dup2"), "v", item.Int(int64(i))))
			continue
		}
		mid = append(mid, obj("s", item.Str(fmt.Sprintf("s%d", i%5)), "v", item.Int(int64(i))))
	}
	cases["overflow-mid"] = mid

	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			data, zones, err := Encode(rows)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			fields := []string{"definitely-missing"}
			for _, cz := range zones {
				fields = append(fields, cz.Name)
			}
			cs, err := DecodeColumns("t.rseg", data, fields)
			if err != nil {
				t.Fatalf("DecodeColumns: %v", err)
			}
			if cs.NumRows != len(rows) {
				t.Fatalf("NumRows = %d, want %d", cs.NumRows, len(rows))
			}
			for _, f := range fields {
				col := cs.Col(f)
				if col == nil {
					t.Fatalf("field %s: no column", f)
				}
				for i := range rows {
					want := expectedField(rows[i], f)
					got := col.Item(i)
					if (got == nil) != (want == nil) || (got != nil && !itemsEqual(got, want)) {
						t.Errorf("field %s row %d: got %v, want %v", f, i, got, want)
					}
				}
			}
		})
	}
}

// TestKernelOutputsOwnOnlyTheirLanes pins lanes on demand in the decoder:
// a decoded column allocates only the lanes its tags name (dictionary
// codes in Ints), and so does an overflow-only or missing field.
func TestKernelOutputsOwnOnlyTheirLanes(t *testing.T) {
	var rows []item.Item
	for i := 0; i < 40; i++ {
		rows = append(rows, obj("s", item.Str(fmt.Sprintf("s%d", i%3)), "i", item.Int(int64(i)),
			"d", item.Double(float64(i)/2), "b", item.Bool(i%2 == 0), "x", dec("1/3")))
	}
	// A duplicate-key row overflows; its fields reach the lanes through
	// the dictionary ("s") or as the only rows of their field ("o").
	rows[25] = obj("s", item.Str("s1"), "s", item.Str("s2"), "o", item.Int(7))
	data, _, err := Encode(rows)
	if err != nil {
		t.Fatal(err)
	}
	fields := []string{"s", "i", "d", "b", "x", "o", "missing"}
	cs, err := DecodeColumns("t.rseg", data, fields)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"s": "Ints", "i": "Ints", "d": "Nums", "b": "", "x": "Items", "o": "Ints", "missing": ""}
	for _, f := range fields {
		c := cs.Col(f)
		var held []string
		for _, l := range []struct {
			name string
			ok   bool
		}{{"Ints", c.Ints != nil}, {"Nums", c.Nums != nil}, {"Strs", c.Strs != nil}, {"Items", c.Items != nil}} {
			if l.ok {
				held = append(held, l.name)
			}
		}
		if got := strings.Join(held, ","); got != want[f] {
			t.Errorf("decoded lane %q holds [%s], want [%s]", f, got, want[f])
		}
		for i := range rows {
			if got, w := c.Item(i), expectedField(rows[i], f); (got == nil) != (w == nil) || got != nil && !itemsEqual(got, w) {
				t.Errorf("field %s row %d: got %v, want %v", f, i, got, w)
			}
		}
	}
	if cs.Col("s").Dict == nil {
		t.Error("the string lane must stay a dictionary column")
	}
}

func TestEncodeRejectsOverCapacity(t *testing.T) {
	rows := make([]item.Item, Rows+1)
	for i := range rows {
		rows[i] = obj("v", item.Int(i))
	}
	if _, _, err := Encode(rows); err == nil {
		t.Fatal("Encode accepted more than Rows rows")
	}
}

// TestDecodeTorture: every truncation of a valid segment, and every
// single-bit flip anywhere in it, must yield a structured error or a
// bit-identical decode — never a panic, a hang, or silently wrong rows.
func TestDecodeTorture(t *testing.T) {
	rows := roundTripRows()
	data, _, err := Encode(rows)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(data); n++ {
			if _, err := Decode("t.rseg", data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded without error", n)
			} else if _, ok := err.(*Error); !ok {
				t.Fatalf("truncation to %d bytes: unstructured error %T: %v", n, err, err)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		for pos := 0; pos < len(data); pos++ {
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(data)
				mut[pos] ^= 1 << bit
				dec, err := Decode("t.rseg", mut)
				if err != nil {
					if _, ok := err.(*Error); !ok {
						t.Fatalf("flip %d.%d: unstructured error %T: %v", pos, bit, err, err)
					}
					continue
				}
				// The payload is CRC-protected, so a silent decode can only
				// come from a header flip that still parses; it must then
				// reproduce the rows exactly to count as harmless.
				if len(dec.Rows) != len(rows) {
					t.Fatalf("flip %d.%d: decoded %d rows silently", pos, bit, len(dec.Rows))
				}
				for i := range rows {
					if !itemsEqual(rows[i], dec.Rows[i]) {
						t.Fatalf("flip %d.%d: row %d silently wrong", pos, bit, i)
					}
				}
			}
		}
	})

	t.Run("appended-garbage", func(t *testing.T) {
		if _, err := Decode("t.rseg", append(bytes.Clone(data), 0xAB)); err == nil {
			t.Fatal("trailing garbage decoded without error")
		}
	})
}

func FuzzSegmentDecode(f *testing.F) {
	for _, rows := range [][]item.Item{
		roundTripRows(),
		{},
		{obj("g", item.Int(1), "v", item.Double(0.5))},
		{
			// Dictionary-heavy seed: repeated strings share codes, and a
			// duplicate-key row forces the overflow (exact-items) shape.
			obj("s", item.Str("aa"), "v", item.Int(1)),
			obj("s", item.Str("bb"), "v", item.Int(2)),
			obj("s", item.Str("aa"), "v", item.Int(3)),
			obj("s", item.Str("dup1"), "s", item.Str("dup2"), "v", item.Int(4)),
			obj("s", item.Str("bb"), "v", item.Int(5)),
		},
	} {
		data, _, err := Encode(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("RSEG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode("fuzz.rseg", data)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("unstructured error %T: %v", err, err)
			}
			// The projected decoder sees the same corrupt image; it may
			// reject or accept (it skips lanes the row decoder reads), but
			// never with an unstructured error or a panic.
			if _, cerr := DecodeColumns("fuzz.rseg", data, []string{"g", "v"}); cerr != nil {
				if _, ok := cerr.(*Error); !ok {
					t.Fatalf("unstructured DecodeColumns error %T: %v", cerr, cerr)
				}
			}
			return
		}
		// A successful decode must be internally consistent: zone maps and
		// re-encoding must not panic either.
		_, zones, err := Encode(dec.Rows)
		if err != nil {
			t.Fatalf("re-encode of decoded rows failed: %v", err)
		}
		// Projected decode of every column (and one the image lacks) must
		// agree with a per-row field lookup over the decoded rows —
		// dictionary/code lanes included.
		fields := []string{"fuzz-missing"}
		for _, cz := range zones {
			fields = append(fields, cz.Name)
		}
		img := bytes.Clone(data)
		cs, err := DecodeColumns("fuzz.rseg", img, fields)
		if err != nil {
			t.Fatalf("DecodeColumns rejected an image Decode accepted: %v", err)
		}
		// Nothing decoded may alias the image: the store reads segment
		// files into recycled buffers. Scribble over it before comparing.
		for i := range img {
			img[i] = 0xA5
		}
		if cs.NumRows != len(dec.Rows) {
			t.Fatalf("DecodeColumns rows = %d, Decode rows = %d", cs.NumRows, len(dec.Rows))
		}
		for _, f := range fields {
			col := cs.Col(f)
			if col == nil {
				t.Fatalf("field %s: no column", f)
			}
			for i := range dec.Rows {
				want := expectedField(dec.Rows[i], f)
				got := col.Item(i)
				if (got == nil) != (want == nil) || (got != nil && !itemsEqual(got, want)) {
					t.Fatalf("field %s row %d: projected %v, row decode %v", f, i, got, want)
				}
			}
		}
		// And the rows assembled from those lanes must be the oracle's rows.
		for i := range dec.Rows {
			got, err := cs.Row(i)
			if err != nil {
				t.Fatalf("Row(%d) failed on an image Decode accepted: %v", i, err)
			}
			if !itemsEqual(got, dec.Rows[i]) {
				t.Fatalf("row %d: assembled %v, row decode %v", i, got, dec.Rows[i])
			}
		}
	})
}
