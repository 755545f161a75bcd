package runtime

import (
	"testing"

	"rumble/internal/item"
	"rumble/internal/spark"
)

// TestSlotBoundContexts pins the one binding mechanism under FLWOR rows and
// tuples: names resolve by slot off the row's / tuple's own values, the last
// binding of a redeclared name shadows, unnamed cells are invisible, outer
// bindings stay reachable, and binding costs exactly one allocation.
func TestSlotBoundContexts(t *testing.T) {
	one := func(n int64) []item.Item { return []item.Item{item.Int(n)} }
	root := NewDynamicContext().BindVar("outer", one(7))

	tup := tuple{}.extend("x", one(1)).extend("y", one(2)).extend("x", one(3))
	tdc := tup.context(root)
	for name, want := range map[string]int64{"x": 3, "y": 2, "outer": 7} {
		if v, ok := tdc.Lookup(name); !ok || len(v) != 1 || v[0] != item.Int(want) {
			t.Errorf("tuple context: $%s = %v, want %d", name, v, want)
		}
	}
	if _, ok := tdc.Lookup("z"); ok {
		t.Error("tuple context resolves an unbound name")
	}
	if v, ok := tup.lookup("x"); !ok || v[0] != item.Int(3) {
		t.Errorf("tuple.lookup disagrees with its context: %v", v)
	}

	// A DataFrame row: cell 0 carries $a, cell 1 a native key column no
	// variable names, cell 2 carries $b bound to the empty sequence.
	st := &dfState{
		df: spark.NewDataFrame(spark.Schema{Cols: []spark.Column{
			{Name: "c1", Type: spark.ColSeq}, {Name: "c2", Type: spark.ColInt}, {Name: "c3", Type: spark.ColSeq},
		}}, nil),
		varCol: map[string]string{"a": "c1", "b": "c3", "gone": "c9"},
	}
	bind := st.rowBinder(root)
	row := spark.Row{one(10), int64(99), nil}
	rdc := bind(row)
	if v, ok := rdc.Lookup("a"); !ok || v[0] != item.Int(10) {
		t.Errorf("row context: $a = %v", v)
	}
	if v, ok := rdc.Lookup("b"); !ok || len(v) != 0 {
		t.Errorf("row context: $b = %v, %v; want bound to the empty sequence", v, ok)
	}
	if _, ok := rdc.Lookup("gone"); ok {
		t.Error("row context resolves a variable whose column left the schema")
	}
	if _, ok := rdc.Lookup(""); ok {
		t.Error("row context resolves the empty name to an unnamed cell")
	}
	if v, _, ok := rdc.Resolve("outer"); !ok || v[0] != item.Int(7) {
		t.Errorf("row context hides the outer binding: %v", v)
	}

	var sink *DynamicContext
	if n := testing.AllocsPerRun(100, func() { sink = bind(row) }); n != 1 {
		t.Errorf("binding one DataFrame row: %.0f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = tup.context(root) }); n != 1 {
		t.Errorf("binding one local tuple: %.0f allocations, want 1", n)
	}
	_ = sink
}

// TestMaterializeReadsInPlace pins the closure-free reads: a literal, a
// bound variable and $var.key (chained, too) materialize without
// allocating, the results are capacity-clipped views that an append cannot
// write through, and the shapes the fast path declines agree with Stream.
func TestMaterializeReadsInPlace(t *testing.T) {
	inner := item.NewObject([]string{"z"}, []item.Item{item.Int(5)})
	obj := item.NewObject([]string{"a", "b", "a"}, []item.Item{item.Int(1), inner, item.Int(3)})
	multi := []item.Item{obj, item.Int(4), item.NewObject([]string{"a"}, []item.Item{item.Int(8)})}
	shared := make([]item.Item, 2, 8)
	shared[0], shared[1] = item.Int(1), item.Int(2)
	dc := NewDynamicContext().bindTuple(
		[]string{"o", "m", "s", "e"},
		[][]item.Item{{obj}, multi, shared, nil})

	lookup := func(in Iterator, key string) *objectLookupIter {
		return &objectLookupIter{input: in, lit: key, hasLit: true}
	}
	v := func(name string) Iterator { return &varRefIter{name: name} }
	cases := []struct {
		name string
		it   Iterator
		want string
	}{
		{"literal", newLiteral(item.Str("x")), `"x"`},
		{"variable", v("o"), string(obj.AppendJSON(nil))},
		{"empty variable", v("e"), ""},
		{"first duplicate wins", lookup(v("o"), "a"), "1"},
		{"chained", lookup(lookup(v("o"), "b"), "z"), "5"},
		{"absent key", lookup(v("o"), "nope"), ""},
		{"key of a non-object", lookup(lookup(v("o"), "a"), "z"), ""},
		{"key of the empty sequence", lookup(v("e"), "a"), ""},
	}
	for _, c := range cases {
		var got []item.Item
		var err error
		n := testing.AllocsPerRun(50, func() { got, err = Materialize(c.it, dc) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s := item.SerializeSequence(got); s != c.want {
			t.Errorf("%s: %s, want %s", c.name, s, c.want)
		}
		if n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", c.name, n)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: result has spare capacity %d: an append would write into shared storage", c.name, cap(got)-len(got))
		}
	}

	// A multi-item input takes the loop (and allocates its own result).
	got, err := Materialize(lookup(v("m"), "a"), dc)
	if err != nil || item.SerializeSequence(got) != "1\n8" {
		t.Errorf("lookup over a multi-item variable: %v, %v", got, err)
	}
	// Appending to a materialized variable must not reach the binding.
	seq, _ := Materialize(v("s"), dc)
	_ = append(seq, item.Int(99))
	if len(shared) != 2 || shared[:3][2] != nil {
		t.Error("append to a materialized variable wrote into the bound sequence")
	}
	// An unbound variable still fails through the generic path.
	if _, err := Materialize(v("unbound"), dc); err == nil {
		t.Error("unbound variable materialized")
	}
	// Stream and Materialize agree where the fast path applies.
	for _, c := range cases {
		var streamed []item.Item
		if err := c.it.Stream(dc, func(it item.Item) error { streamed = append(streamed, it); return nil }); err != nil {
			t.Fatal(err)
		}
		if s := item.SerializeSequence(streamed); s != c.want {
			t.Errorf("%s: Stream yields %s, want %s", c.name, s, c.want)
		}
	}
}
