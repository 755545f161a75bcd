package vector

import (
	"math/big"
	"strings"
	"testing"

	"rumble/internal/item"
)

// lanesHeld names the typed lanes c has allocated, in the order
// Ints, Nums, Strs, Items.
func lanesHeld(c *Col) string {
	var held []string
	if c.Ints != nil {
		held = append(held, "Ints")
	}
	if c.Nums != nil {
		held = append(held, "Nums")
	}
	if c.Strs != nil {
		held = append(held, "Strs")
	}
	if c.Items != nil {
		held = append(held, "Items")
	}
	return strings.Join(held, ",")
}

// TestKernelOutputsOwnOnlyTheirLanes pins lanes on demand: a kernel
// allocates exactly the lanes its output rows use, so a boolean column is
// its tag lane alone and an int column its tags plus Ints.
func TestKernelOutputsOwnOnlyTheirLanes(t *testing.T) {
	ints := Sequence(0, 4)
	b := &Batch{N: 4, Cols: []*Col{ints, colOf(item.Bool(true), item.Bool(false), item.Bool(true), nil)}}
	cmp, err := Compare(ints, ConstCol(item.Int(2)), 4, CmpLt)
	if err != nil {
		t.Fatal(err)
	}
	logic, err := (&LogicExpr{And: true, L: &SlotExpr{Slot: 1}, R: &CmpExpr{
		Op: CmpGe, L: &SlotExpr{Slot: 0}, R: &LitExpr{Col: ConstCol(item.Int(1))},
	}}).Eval(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	exists, err := (&ExistsExpr{}).Eval(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Arith(ints, ConstCol(item.Int(10)), 4, item.OpAdd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		col  *Col
		want string
	}{
		{"Compare", cmp, ""},
		{"LogicExpr", logic, ""},
		{"ExistsExpr", exists, ""},
		{"row-index Sequence", ints, "Ints"},
		{"int Arith", sum, "Ints"},
	} {
		if got := lanesHeld(tc.col); got != tc.want {
			t.Errorf("%s output holds lanes [%s], want [%s]", tc.name, got, tc.want)
		}
	}
	if cap(ints.Ints) != cap(ints.Tags) {
		t.Errorf("Ints allocated at capacity %d, want the tag lane's %d", cap(ints.Ints), cap(ints.Tags))
	}

	// Mixed int/double arithmetic reads each operand from the lane its own
	// tag names: l's int rows after its last double row lie outside its
	// Nums lane, and r's first double row comes after its int rows.
	l := []item.Item{item.Int(3), item.Double(1.5), item.Int(2), item.Int(-4)}
	r := []item.Item{item.Int(4), item.Int(2), item.Double(0.25), item.Double(0.5)}
	for _, op := range []item.ArithOp{item.OpAdd, item.OpSub, item.OpMul, item.OpDiv} {
		got, err := Arith(colOf(l...), colOf(r...), len(l), op)
		if err != nil {
			t.Fatal(err)
		}
		for i := range l {
			want, err := item.Arithmetic(op, l[i], r[i])
			if err != nil {
				t.Fatal(err)
			}
			if gi := got.Item(i); gi.String() != want.String() || gi.Kind() != want.Kind() {
				t.Errorf("%s %s %s: got %s (%s), want %s (%s)", l[i], op, r[i], gi, gi.Kind(), want, want.Kind())
			}
		}
	}
}

// laneItem maps one fuzz byte to a row: the low three bits pick the kind
// (absent, null, bool, int, double, string, decimal, array), the rest a
// small value, so zeros and empty strings (false EBVs) come up often.
func laneItem(b byte) item.Item {
	v := int64(b>>3) - 8
	switch b & 7 {
	case 0:
		return nil
	case 1:
		return item.Null{}
	case 2:
		return item.Bool(v&1 == 1)
	case 3:
		return item.Int(v)
	case 4:
		return item.Double(float64(v) / 2)
	case 5:
		return item.Str(strings.Repeat("s", int(b>>3)%3))
	case 6:
		return item.NewDecimal(big.NewRat(v, 4))
	default:
		return item.NewArray([]item.Item{item.Int(v)})
	}
}

// checkRows holds every row of c to the item it was built from: Item,
// SortKey, EBV and, for present rows, Kind.
func checkRows(t *testing.T, what string, c *Col, want []item.Item) {
	t.Helper()
	if c.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, c.Len(), len(want))
	}
	for i, w := range want {
		got := c.Item(i)
		if (got == nil) != (w == nil) || got != nil && (got.String() != w.String() || got.Kind() != w.Kind()) {
			t.Fatalf("%s row %d: Item = %v, want %v", what, i, got, w)
		}
		var seq []item.Item
		if w != nil {
			seq = []item.Item{w}
		}
		gk, gerr := c.SortKey(i)
		wk, werr := item.EncodeSortKey(seq, false)
		if (gerr != nil) != (werr != nil) ||
			gerr == nil && string(item.AppendSortKey(nil, gk)) != string(item.AppendSortKey(nil, wk)) {
			t.Fatalf("%s row %d (%v): SortKey = %v/%v, want %v/%v", what, i, w, gk, gerr, wk, werr)
		}
		webv, _ := item.EffectiveBoolean(seq)
		if c.EBV(i) != webv {
			t.Fatalf("%s row %d (%v): EBV = %v, want %v", what, i, w, c.EBV(i), webv)
		}
		if w != nil && c.Kind(i) != w.Kind() {
			t.Fatalf("%s row %d: Kind = %s, want %s", what, i, c.Kind(i), w.Kind())
		}
	}
}

// checkOwnsOnlyUsed fails when c holds a typed lane no row of want needs,
// or lacks one some row needs.
func checkOwnsOnlyUsed(t *testing.T, what string, c *Col, want []item.Item) {
	t.Helper()
	var need Col // a non-nil lane marks a kind some row has
	for _, w := range want {
		switch w.(type) {
		case item.Int:
			need.Ints = []int64{}
		case item.Double:
			need.Nums = []float64{}
		case item.Str:
			need.Strs = []string{}
		case nil, item.Null, item.Bool:
		default:
			need.Items = []item.Item{}
		}
	}
	if got, want := lanesHeld(c), lanesHeld(&need); got != want {
		t.Fatalf("%s holds lanes [%s], its rows need [%s]", what, got, want)
	}
}

// FuzzColLanes builds columns from a fuzzed sequence of kinds whose first
// row of each kind lands at a fuzzed offset (pad absent rows, then the
// sequence), and holds every row of the column, of a column written back
// to front through SetItem, of a Slice and of a Compact to the items they
// came from.
func FuzzColLanes(f *testing.F) {
	f.Add([]byte{3, 4, 5, 0, 6, 7, 1, 2, 0x1b, 0x0c}, uint16(0), uint16(2), uint16(5), []byte{1, 0, 1})
	f.Add([]byte{0, 0, 2, 3, 3, 12, 4, 5}, uint16(1500), uint16(1400), uint16(300), []byte{0, 0, 1})
	f.Add([]byte{7}, uint16(BatchSize-1), uint16(BatchSize), uint16(1), []byte{1})
	f.Fuzz(func(t *testing.T, kinds []byte, pad, off, n uint16, keep []byte) {
		if len(kinds) > 4*BatchSize {
			kinds = kinds[:4*BatchSize]
		}
		rows := make([]item.Item, int(pad)%(2*BatchSize), int(pad)%(2*BatchSize)+len(kinds))
		for _, b := range kinds {
			rows = append(rows, laneItem(b))
		}
		c := colOf(rows...)
		checkRows(t, "appended", c, rows)
		checkOwnsOnlyUsed(t, "appended", c, rows)

		back := NewCol(len(rows))
		for range rows {
			back.AppendAbsent()
		}
		for i := len(rows) - 1; i >= 0; i-- {
			back.SetItem(i, rows[i])
		}
		checkRows(t, "set back to front", back, rows)
		checkOwnsOnlyUsed(t, "set back to front", back, rows)

		o := int(off) % (len(rows) + 1)
		m := int(n) % (len(rows) - o + 1)
		checkRows(t, "slice", c.Slice(o, m), rows[o:o+m])

		mask := make([]bool, len(rows))
		for i := range mask {
			mask[i] = len(keep) > 0 && keep[i%len(keep)]&1 == 1
		}
		kept := keptOf(rows, mask)
		compact := c.Compact(mask, len(kept))
		checkRows(t, "compact", compact, kept)
		checkOwnsOnlyUsed(t, "compact", compact, kept)
		keptSlice := keptOf(rows[o:o+m], mask[o:o+m])
		checkRows(t, "compacted slice", c.Slice(o, m).Compact(mask[o:o+m], len(keptSlice)), keptSlice)
	})
}

func keptOf(rows []item.Item, mask []bool) []item.Item {
	var out []item.Item
	for i, k := range mask {
		if k {
			out = append(out, rows[i])
		}
	}
	return out
}
