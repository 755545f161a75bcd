package vector

import (
	"math"
	"math/big"
	"testing"

	"rumble/internal/item"
)

// heap is the nil scratch: kernels called through it allocate their
// outputs on the heap.
var heap *Scratch

func colOf(items ...item.Item) *Col {
	c := NewCol(len(items))
	for _, it := range items {
		c.AppendItem(it) // nil appends absent
	}
	return c
}

func TestColRoundTrip(t *testing.T) {
	dec, _ := item.DecimalFromString("3.14")
	items := []item.Item{
		nil,
		item.Null{},
		item.Bool(true),
		item.Bool(false),
		item.Int(42),
		item.Double(2.5),
		item.Str("hi"),
		dec,
		item.NewArray([]item.Item{item.Int(1)}),
		item.NewObject([]string{"a"}, []item.Item{item.Int(1)}),
	}
	c := colOf(items...)
	for i, want := range items {
		got := c.Item(i)
		if want == nil {
			if got != nil {
				t.Fatalf("row %d: want absent, got %v", i, got)
			}
			continue
		}
		if got.String() != want.String() || got.Kind() != want.Kind() {
			t.Fatalf("row %d: got %s (%s), want %s (%s)", i, got, got.Kind(), want, want.Kind())
		}
	}
}

// TestColSortKeyMatchesEncode pins that the column's direct key encoding
// agrees byte-for-byte with item.EncodeSortKey on the decoded value — the
// invariant that makes vector group-by bucket exactly like tuple group-by.
func TestColSortKeyMatchesEncode(t *testing.T) {
	dec, _ := item.DecimalFromString("2.75")
	big53 := item.Int(1<<53 + 1)
	values := []item.Item{
		nil, item.Null{}, item.Bool(false), item.Bool(true),
		item.Int(7), item.Int(-7), big53,
		item.Double(2.5), item.Double(math.NaN()), item.Double(math.Copysign(0, -1)),
		item.Double(1 << 53), item.Str(""), item.Str("x"), dec,
	}
	c := colOf(values...)
	for i, v := range values {
		got, err := c.SortKey(i)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		var seq []item.Item
		if v != nil {
			seq = []item.Item{v}
		}
		want, err := item.EncodeSortKey(seq, false)
		if err != nil {
			t.Fatalf("row %d: encode: %v", i, err)
		}
		gb := item.AppendSortKey(nil, got)
		wb := item.AppendSortKey(nil, want)
		if string(gb) != string(wb) {
			t.Fatalf("row %d (%v): key bytes differ", i, v)
		}
	}
	// Non-atomic keys must fail exactly like EncodeSortKey.
	bad := colOf(item.NewArray(nil))
	if _, err := bad.SortKey(0); err == nil {
		t.Fatal("want error for non-atomic key")
	}
}

func TestCompareMirrorsCompareValues(t *testing.T) {
	dec, _ := item.DecimalFromString("2.5")
	vals := []item.Item{
		item.Null{}, item.Bool(false), item.Bool(true),
		item.Int(1), item.Int(2), item.Int(1<<53 + 1),
		item.Double(1), item.Double(2.5), item.Double(1 << 53),
		item.Double(math.NaN()), item.Double(math.Inf(1)),
		item.Str(""), item.Str("a"), dec,
	}
	for _, a := range vals {
		for _, b := range vals {
			l, r := colOf(a), colOf(b)
			got, gotErr := Compare(l, r, 1, CmpEq)
			wantC, wantErr := item.CompareValues(a, b)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s eq %s: err = %v, want-err %v", a, b, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if want := wantC == 0; got.EBV(0) != want {
				t.Fatalf("%s eq %s: got %v, want %v", a, b, got.EBV(0), want)
			}
		}
	}
	// Absent operands absorb.
	out, err := Compare(colOf(nil), colOf(item.Int(1)), 1, CmpLt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tags[0] != TagAbsent {
		t.Fatal("absent operand must yield absent")
	}
}

func TestArithMirrorsArithmetic(t *testing.T) {
	dec, _ := item.DecimalFromString("0.1")
	pairs := []struct{ a, b item.Item }{
		{item.Int(2), item.Int(3)},
		{item.Int(math.MaxInt64), item.Int(1)}, // overflow promotes
		{item.Int(2), item.Double(0.5)},
		{item.Double(1.5), item.Double(2.5)},
		{item.Int(1), dec},
		{item.Int(7), item.Int(2)},
	}
	ops := []item.ArithOp{item.OpAdd, item.OpSub, item.OpMul, item.OpDiv, item.OpIDiv, item.OpMod}
	for _, p := range pairs {
		for _, op := range ops {
			got, gotErr := heap.arith(colOf(p.a), colOf(p.b), 1, op)
			want, wantErr := item.Arithmetic(op, p.a, p.b)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s %s %s: err=%v want-err=%v", p.a, op, p.b, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			gi := got.Item(0)
			if gi.String() != want.String() || gi.Kind() != want.Kind() {
				t.Fatalf("%s %s %s: got %s (%s), want %s (%s)",
					p.a, op, p.b, gi, gi.Kind(), want, want.Kind())
			}
		}
	}
	// Division by zero errors on both paths.
	if _, err := heap.arith(colOf(item.Int(1)), colOf(item.Int(0)), 1, item.OpIDiv); err == nil {
		t.Fatal("idiv by zero must error")
	}
	if _, err := heap.arith(colOf(item.Int(1)), colOf(item.Int(0)), 1, item.OpMod); err == nil {
		t.Fatal("mod by zero must error")
	}
	// Non-numeric operands error like item.Arithmetic.
	if _, err := heap.arith(colOf(item.Str("x")), colOf(item.Int(1)), 1, item.OpAdd); err == nil {
		t.Fatal("string operand must error")
	}
}

func TestGroupsSumOverflowPromotes(t *testing.T) {
	g := NewGroups(1, []AggKind{AggSum})
	key := ConstCol(item.Str("k"))
	vals := colOf(item.Int(math.MaxInt64), item.Int(math.MaxInt64))
	if err := g.Update([]*Col{key}, []*Col{vals}, 2); err != nil {
		t.Fatal(err)
	}
	res, err := g.Agg(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Rat).SetInt64(math.MaxInt64)
	want.Add(want, new(big.Rat).SetInt64(math.MaxInt64))
	if res.Kind() != item.KindDecimal {
		t.Fatalf("overflowed sum kind = %s, want decimal", res.Kind())
	}
	if res.(item.Dec).Rat().Cmp(want) != 0 {
		t.Fatalf("overflowed sum = %s", res)
	}
}

func TestGroupsFirstSeenOrderAndEmptyAggs(t *testing.T) {
	g := NewGroups(1, []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax})
	keys := colOf(item.Str("b"), item.Str("a"), item.Str("b"))
	present := colOf(item.Int(1), nil, item.Int(3))
	if err := g.Update([]*Col{keys},
		[]*Col{present, present, present, present, present}, 3); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d, want 2", g.Len())
	}
	if g.Key(0, 0).String() != "b" || g.Key(1, 0).String() != "a" {
		t.Fatal("groups must emit in first-seen order")
	}
	// Group "a" saw only an absent value: count 0, sum 0, avg/min/max empty.
	checks := []struct {
		j    int
		want string // "" = absent
	}{{0, "0"}, {1, "0"}, {2, ""}, {3, ""}, {4, ""}}
	for _, ck := range checks {
		res, err := g.Agg(1, ck.j)
		if err != nil {
			t.Fatal(err)
		}
		if ck.want == "" {
			if res != nil {
				t.Fatalf("agg %d = %v, want absent", ck.j, res)
			}
		} else if res == nil || res.String() != ck.want {
			t.Fatalf("agg %d = %v, want %s", ck.j, res, ck.want)
		}
	}
	// Group "b": count 2, sum 4, avg 2, min 1, max 3.
	for j, want := range []string{"2", "4", "2", "1", "3"} {
		res, err := g.Agg(0, j)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != want {
			t.Fatalf("group b agg %d = %s, want %s", j, res, want)
		}
	}
}

// TestGroupsMergeMatchesSequential pins the mergeable-state contract: a
// fold split into per-chunk partial tables merged in chunk order produces
// the same groups — order, keys, counts, sums, extrema — as one continuous
// fold, for any chunking. This is what makes morsel-parallel grouped
// aggregation deterministic across worker counts.
func TestGroupsMergeMatchesSequential(t *testing.T) {
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}
	var keys, vals []item.Item
	for i := 0; i < 100; i++ {
		switch i % 9 {
		case 7:
			keys = append(keys, nil) // absent key
		case 8:
			keys = append(keys, item.Double(float64(i%5)))
		default:
			keys = append(keys, item.Int(int64(i%5)))
		}
		if i%11 == 10 {
			vals = append(vals, nil) // absent value
		} else {
			vals = append(vals, item.Int(int64(i)))
		}
	}
	fold := func(chunk int) *Groups {
		var merged *Groups
		for start := 0; start < len(keys); start += chunk {
			end := min(start+chunk, len(keys))
			part := NewGroups(1, kinds)
			kc, vc := colOf(keys[start:end]...), colOf(vals[start:end]...)
			if err := part.Update([]*Col{kc}, []*Col{vc, vc, vc, vc, vc}, end-start); err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = part
			} else if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		return merged
	}
	whole := fold(len(keys))
	for _, chunk := range []int{1, 3, 7, 33, 99} {
		got := fold(chunk)
		if got.Len() != whole.Len() {
			t.Fatalf("chunk %d: %d groups, want %d", chunk, got.Len(), whole.Len())
		}
		for gi := 0; gi < whole.Len(); gi++ {
			wk, gk := whole.Key(gi, 0), got.Key(gi, 0)
			if (wk == nil) != (gk == nil) || (wk != nil && wk.String() != gk.String()) {
				t.Fatalf("chunk %d: group %d key = %v, want %v", chunk, gi, gk, wk)
			}
			for j := range kinds {
				w, err := whole.Agg(gi, j)
				if err != nil {
					t.Fatal(err)
				}
				g, err := got.Agg(gi, j)
				if err != nil {
					t.Fatal(err)
				}
				if (w == nil) != (g == nil) || (w != nil && w.String() != g.String()) {
					t.Fatalf("chunk %d: group %d agg %d = %v, want %v", chunk, gi, j, g, w)
				}
			}
		}
	}
}

// TestGroupsMergeKeepsFirstSeenExtremum pins min/max tie-breaking across a
// merge: when partials hold compare-equal extrema of different types (Int 5
// vs Double 5.0), the earlier partial's first-seen value survives, exactly
// as the continuous left-to-right fold keeps the first of equals.
func TestGroupsMergeKeepsFirstSeenExtremum(t *testing.T) {
	kinds := []AggKind{AggMin, AggMax}
	key := ConstCol(item.Str("k"))
	a := NewGroups(1, kinds)
	av := colOf(item.Int(5))
	if err := a.Update([]*Col{key}, []*Col{av, av}, 1); err != nil {
		t.Fatal(err)
	}
	b := NewGroups(1, kinds)
	bv := colOf(item.Double(5))
	if err := b.Update([]*Col{key}, []*Col{bv, bv}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for j := range kinds {
		res, err := a.Agg(0, j)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind() != item.KindInteger {
			t.Fatalf("agg %d kept %s (%v), want the first-seen integer", j, res.Kind(), res)
		}
	}
}

// TestGroupsMergeGrand pins the grand-aggregate helpers: EnsureGrand
// materializes the single implicit group of an empty fold, and merging
// keyless partials combines their accumulators.
func TestGroupsMergeGrand(t *testing.T) {
	kinds := []AggKind{AggCount, AggSum}
	empty := NewGroups(0, kinds)
	empty.EnsureGrand()
	if empty.Len() != 1 {
		t.Fatalf("EnsureGrand: %d groups, want 1", empty.Len())
	}
	if res, err := empty.Agg(0, 0); err != nil || res.String() != "0" {
		t.Fatalf("empty grand count = %v, %v", res, err)
	}
	if res, err := empty.Agg(0, 1); err != nil || res.String() != "0" {
		t.Fatalf("empty grand sum = %v, %v", res, err)
	}
	part := NewGroups(0, kinds)
	v := colOf(item.Int(2), item.Int(3))
	if err := part.Update(nil, []*Col{v, v}, 2); err != nil {
		t.Fatal(err)
	}
	if err := empty.Merge(part); err != nil {
		t.Fatal(err)
	}
	if res, _ := empty.Agg(0, 0); res.String() != "2" {
		t.Fatalf("merged grand count = %v, want 2", res)
	}
	if res, _ := empty.Agg(0, 1); res.String() != "5" {
		t.Fatalf("merged grand sum = %v, want 5", res)
	}
}

func TestCompactAndConst(t *testing.T) {
	c := colOf(item.Int(1), item.Int(2), item.Int(3))
	out := heap.Compact(c, []bool{true, false, true}, 2)
	if out.Len() != 2 || out.Ints[0] != 1 || out.Ints[1] != 3 {
		t.Fatalf("compact = %v", out.Ints)
	}
	k := ConstCol(item.Str("x"))
	if got := heap.Compact(k, []bool{false}, 0); got != k {
		t.Fatal("const columns must pass through compaction")
	}
	if k.Item(5).String() != "x" {
		t.Fatal("const column must broadcast to any row")
	}
}

// TestGroupsNameNonAtomicKeys pins Update's error for a non-atomic key row:
// the tuple backend's wording, naming the key's variable, or its position
// in a table whose keys are unnamed.
func TestGroupsNameNonAtomicKeys(t *testing.T) {
	keys := []*Col{ConstCol(item.Str("k")), colOf(item.NewArray(nil))}
	for _, c := range []struct {
		g    *Groups
		want string
	}{
		{NewGroups(2, nil).Named([]string{"a", "b"}), "group by: key $b binds a non-atomic array item"},
		{NewGroups(2, nil), "group by: key 2 binds a non-atomic array item"},
	} {
		if err := c.g.Update(keys, nil, 1); err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
	}
}
