package runtime

import (
	"testing"

	"rumble/internal/item"
)

// TestSlotBoundContexts pins the one binding mechanism under FLWOR tuples:
// names resolve by slot off the tuple's own values under its clause's frame,
// the last binding of a redeclared name shadows, outer bindings stay
// reachable, and binding costs exactly one allocation — as extending a
// tuple under the next clause's frame does.
func TestSlotBoundContexts(t *testing.T) {
	one := func(n int64) []item.Item { return []item.Item{item.Int(n)} }
	root := NewDynamicContext().BindVar("outer", one(7))

	frame := []string{"x", "y", "x", "e"}
	tup := tuple{}.with(frame[:1], one(1)).with(frame[:2], one(2)).with(frame, one(3), nil)
	tdc := tup.context(root)
	for name, want := range map[string]int64{"x": 3, "y": 2, "outer": 7} {
		if v, ok := tdc.Lookup(name); !ok || len(v) != 1 || v[0] != item.Int(want) {
			t.Errorf("tuple context: $%s = %v, want %d", name, v, want)
		}
	}
	if v, ok := tdc.Lookup("e"); !ok || len(v) != 0 {
		t.Errorf("tuple context: $e = %v, %v; want bound to the empty sequence", v, ok)
	}
	if _, ok := tdc.Lookup("z"); ok {
		t.Error("tuple context resolves an unbound name")
	}
	if v, _, ok := tdc.Resolve("outer"); !ok || v[0] != item.Int(7) {
		t.Errorf("tuple context hides the outer binding: %v", v)
	}

	var sink *DynamicContext
	if n := testing.AllocsPerRun(100, func() { sink = tup.context(root) }); n != 1 {
		t.Errorf("binding one tuple: %.0f allocations, want 1", n)
	}
	_ = sink
	wider := append(frame[:len(frame):len(frame)], "w")
	var next tuple
	if n := testing.AllocsPerRun(100, func() { next = tup.with(wider, nil) }); n != 1 {
		t.Errorf("extending one tuple: %.0f allocations, want 1", n)
	}
	if len(next.values) != len(wider) || &next.names[0] != &wider[0] {
		t.Error("tuple.with copied the frame or lost a value")
	}
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

// TestGroupKeysBindAllocs pins the allocation ceiling of binding one
// tuple's grouping keys: the work and member slices, one context per key
// expression and the exchange key string. The key bytes stay in bindKeys'
// stack buffer, which an encoder reached through a function value would
// make escape.
func TestGroupKeysBindAllocs(t *testing.T) {
	one := func(it item.Item) []item.Item { return []item.Item{it} }
	frame := []string{"x", "s"}
	tup := tuple{names: frame, values: [][]item.Item{one(item.Int(7)), one(item.Str("abc"))}}
	dc := NewDynamicContext()
	for _, c := range []struct {
		name  string
		specs []groupSpecEval
		max   float64
	}{
		{"expression and variable keys", []groupSpecEval{{varName: "k", expr: &varRefIter{name: "x"}}, {varName: "s"}}, 4},
		{"variable key", []groupSpecEval{{varName: "s"}}, 3},
	} {
		g := newGroupByEval(nil, frame, c.specs, nil)
		var err error
		n := testing.AllocsPerRun(100, func() { _, _, err = g.bindKeys(dc, tup) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n > c.max {
			t.Errorf("%s: %.0f allocations per bound tuple, want at most %.0f", c.name, n, c.max)
		}
	}
}
