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
	ints := heap.Sequence(0, 4)
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
	sum, err := heap.arith(ints, ConstCol(item.Int(10)), 4, item.OpAdd)
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
		got, err := heap.arith(colOf(l...), colOf(r...), len(l), op)
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
// to front through SetItem, of a Slice, of a Compact and of a Gather to the
// items they came from. Gather runs over the fuzzed index sequence (two
// bytes an index, so rows repeat and come in any order), over every row
// forwards and backwards, and over no row. Slices, Compacts and Gathers are
// cut from the heap, from a scratch, and from the scratch again after a
// Reset recycled its lanes.
func FuzzColLanes(f *testing.F) {
	f.Add([]byte{3, 4, 5, 0, 6, 7, 1, 2, 0x1b, 0x0c}, uint16(0), uint16(2), uint16(5), []byte{1, 0, 1}, []byte{0, 9, 0, 2, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 2, 3, 3, 12, 4, 5}, uint16(1500), uint16(1400), uint16(300), []byte{0, 0, 1}, []byte{5, 0xdc, 0, 1, 5, 0xdd})
	f.Add([]byte{7}, uint16(BatchSize-1), uint16(BatchSize), uint16(1), []byte{1}, []byte{})
	f.Fuzz(func(t *testing.T, kinds []byte, pad, off, n uint16, keep, gather []byte) {
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
		mask := make([]bool, len(rows))
		for i := range mask {
			mask[i] = len(keep) > 0 && keep[i%len(keep)]&1 == 1
		}
		kept := keptOf(rows, mask)
		keptSlice := keptOf(rows[o:o+m], mask[o:o+m])
		var fuzzed []int32
		if len(rows) > 0 {
			for j := 0; j+1 < len(gather); j += 2 {
				fuzzed = append(fuzzed, int32((int(gather[j])<<8|int(gather[j+1]))%len(rows)))
			}
		}
		every := make([]int32, len(rows))
		backwards := make([]int32, len(rows))
		for i := range rows {
			every[i], backwards[len(rows)-1-i] = int32(i), int32(i)
		}
		var inSlice []int32
		for _, i := range fuzzed {
			if m > 0 {
				inSlice = append(inSlice, i%int32(m))
			}
		}

		// The heap, then a scratch, then the same scratch after a Reset,
		// whose outputs land in the lanes the first pass left behind.
		sc := GetScratch()
		defer sc.Release()
		for _, a := range []struct {
			name string
			s    *Scratch
		}{{"", heap}, {"scratch ", sc}, {"recycled scratch ", sc}} {
			if a.s != nil {
				a.s.Reset()
			}
			checkRows(t, a.name+"slice", a.s.Slice(c, o, m), rows[o:o+m])
			compact := a.s.Compact(c, mask, len(kept))
			checkRows(t, a.name+"compact", compact, kept)
			checkOwnsOnlyUsed(t, a.name+"compact", compact, kept)
			checkRows(t, a.name+"compacted slice", a.s.Compact(a.s.Slice(c, o, m), mask[o:o+m], len(keptSlice)), keptSlice)
			for _, g := range []struct {
				name string
				idx  []int32
			}{{"gather", fuzzed}, {"gather every row", every}, {"gather backwards", backwards}, {"gather no row", []int32{}}} {
				want := gatheredOf(rows, g.idx)
				got := a.s.Gather(c, g.idx)
				checkRows(t, a.name+g.name, got, want)
				checkOwnsOnlyUsed(t, a.name+g.name, got, want)
			}
			checkRows(t, a.name+"gathered slice", a.s.Gather(a.s.Slice(c, o, m), inSlice), gatheredOf(rows[o:o+m], inSlice))
		}
	})
}

func gatheredOf(rows []item.Item, idx []int32) []item.Item {
	out := make([]item.Item, len(idx))
	for j, i := range idx {
		out[j] = rows[i]
	}
	return out
}

// TestGatherDictionaryColumn pins Gather on a dictionary column: the
// result shares Dict, its string rows stay codes in Ints with no Strs lane,
// and every row reads back as the source row it was gathered from. A
// Const column passes through.
func TestGatherDictionaryColumn(t *testing.T) {
	dict := &Col{
		Tags: []Tag{TagString, TagInt, TagAbsent, TagString, TagDouble, TagString},
		Ints: []int64{2, 40, 0, 0, 0, 1},
		Nums: []float64{0, 0, 0, 0, 0.5},
		Dict: []string{"a", "b", "c"},
	}
	idx := []int32{5, 0, 0, 3, 1, 2, 4, 5}
	src := make([]item.Item, dict.Len())
	for i := range src {
		src[i] = dict.Item(i)
	}
	got := heap.Gather(dict, idx)
	if &got.Dict[0] != &dict.Dict[0] || len(got.Dict) != len(dict.Dict) {
		t.Fatalf("Gather did not keep the source Dict: %v", got.Dict)
	}
	if got.Strs != nil {
		t.Fatalf("Gather materialized dictionary strings: Strs = %v", got.Strs)
	}
	for j, i := range idx {
		if dict.Tags[i] == TagString && got.Ints[j] != dict.Ints[i] {
			t.Fatalf("row %d: code %d, want %d", j, got.Ints[j], dict.Ints[i])
		}
	}
	checkRows(t, "gathered dictionary column", got, gatheredOf(src, idx))

	k := ConstCol(item.Str("k"))
	if heap.Gather(k, idx) != k {
		t.Fatal("Gather copied a Const column")
	}
}

// TestGatherAllocations pins Gather's cost to the column it builds: the Col,
// its tag lane and the one typed lane its rows use, whatever the row count.
func TestGatherAllocations(t *testing.T) {
	for _, rows := range []int{BatchSize, 4 * BatchSize} {
		idx := make([]int32, rows)
		ints, strs := NewCol(rows), NewCol(rows)
		dict := &Col{Tags: make([]Tag, rows), Ints: make([]int64, rows), Dict: []string{"x", "y"}}
		for i := range idx {
			idx[i] = int32(rows - 1 - i)
			ints.AppendInt(int64(i))
			strs.AppendItem(item.Str("s"))
			dict.Tags[i], dict.Ints[i] = TagString, int64(i&1)
		}
		for _, tc := range []struct {
			name string
			col  *Col
		}{{"int", ints}, {"dictionary", dict}, {"string", strs}} {
			if got := testing.AllocsPerRun(20, func() { heap.Gather(tc.col, idx) }); got != 3 {
				t.Errorf("Gather of a %d-row %s column: %v allocations, want 3 (Col, Tags, one lane)", rows, tc.name, got)
			}
		}
	}
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
