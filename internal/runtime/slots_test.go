package runtime

import (
	"fmt"
	"strings"
	"testing"

	"rumble/internal/ast"
	"rumble/internal/compiler"
	"rumble/internal/item"
)

// TestSlotBoundContexts pins the one binding mechanism under FLWOR tuples:
// names resolve by slot off the tuple's own values under its clause's frame,
// the last binding of a redeclared name shadows, outer bindings stay
// reachable, rebinding a tuple scope re-points it without touching the
// tuple it was bound to, and binding costs no allocation while extending a
// tuple under the next clause's frame costs one.
func TestSlotBoundContexts(t *testing.T) {
	one := func(n int64) []item.Item { return []item.Item{item.Int(n)} }
	root := NewDynamicContext().BindVar("outer", one(7))

	frame := []string{"x", "y", "x", "e"}
	tup := tuple{}.with(frame[:1], one(1)).with(frame[:2], one(2)).with(frame, one(3), nil)
	sc := root.tupleScope()
	tdc := tup.in(sc)
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

	other := tuple{}.with(frame[:1], one(5))
	if v, _ := other.in(sc).Lookup("x"); v[0] != item.Int(5) {
		t.Errorf("rebound scope: $x = %v, want 5", v)
	}
	if _, ok := sc.Lookup("y"); ok {
		t.Error("rebound scope still resolves the previous tuple's $y")
	}
	if v, _ := tup.in(sc).Lookup("y"); v[0] != item.Int(2) || tup.values[1][0] != item.Int(2) {
		t.Error("rebinding changed a tuple the scope was bound to before")
	}

	var sink *DynamicContext
	if n := testing.AllocsPerRun(100, func() { sink = tup.in(sc) }); n != 0 {
		t.Errorf("binding one tuple: %.0f allocations, want 0", n)
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
	dc := NewDynamicContext().tupleScope().rebind(
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

// TestGroupTableAllocs pins that a row folding into an existing group
// allocates nothing: key expressions run in the table's scope, the work
// frame and the key bytes reuse the table's buffers, the group lookup
// reads the key bytes in place and a count-only carry adds to an int64.
// Only a new group allocates. The reused buffers are dead once a row is
// folded: the keys of one group survive folding the next row.
func TestGroupTableAllocs(t *testing.T) {
	one := func(it item.Item) []item.Item { return []item.Item{it} }
	frame := []string{"x", "s"}
	tup := tuple{names: frame, values: [][]item.Item{one(item.Int(7)), one(item.Str("abc"))}}
	next := tuple{names: frame, values: [][]item.Item{one(item.Int(8)), {item.Str("x"), item.Str("y")}}}
	countS := map[string]compiler.VarUsage{"x": compiler.UsageUnused, "s": compiler.UsageCountOnly}
	dc := NewDynamicContext()
	for _, c := range []struct {
		name  string
		specs []groupSpecEval
		want  string // the two groups, first-seen order; 102 = the first fold, AllocsPerRun's warm-up and its 100 runs
	}{
		{"expression key, count-only carry", []groupSpecEval{{varName: "k", expr: &varRefIter{name: "x"}}},
			"[7 102] [8 2]"},
		{"expression and variable keys, count-only carry", []groupSpecEval{{varName: "k", expr: &varRefIter{name: "x"}}, {varName: "x"}},
			"[7 7 102] [8 8 2]"},
		{"variable key, count-only carry", []groupSpecEval{{varName: "x"}},
			"[7 102] [8 2]"},
	} {
		g := newGroupByEval(nil, frame, c.specs, countS)
		tb := g.newTable(dc)
		if err := tb.foldRow(tup); err != nil { // makes the group
			t.Fatalf("%s: %v", c.name, err)
		}
		var err error
		if n := testing.AllocsPerRun(100, func() { err = tb.foldRow(tup) }); n != 0 {
			t.Errorf("%s: %.0f allocations per row folded into an existing group, want 0", c.name, n)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := tb.foldRow(next); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		if err := tb.emit(func(_ string, t tuple) error {
			var vals []string
			for _, v := range t.values {
				vals = append(vals, item.SerializeSequence(v))
			}
			got = append(got, fmt.Sprint(vals))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s: groups %s, want %s", c.name, s, c.want)
		}
	}
}

// TestEbvOfReadsBooleans pins that a comparison, an and/or and an
// instance-of test reach ebvOf as Go booleans: deciding `$x eq 7 and $x eq 7` under a tuple scope
// allocates nothing, and ebvOf agrees with the effective boolean value of
// what Stream yields, the empty operand included.
func TestEbvOfReadsBooleans(t *testing.T) {
	eq := func(name string, v item.Item) *comparisonIter {
		return &comparisonIter{op: "eq", l: &varRefIter{name: name}, r: newLiteral(v)}
	}
	both := &logicIter{isAnd: true, l: eq("x", item.Int(7)), r: eq("x", item.Int(7))}
	dc := NewDynamicContext().tupleScope().rebind([]string{"x", "e"}, [][]item.Item{{item.Int(7)}, nil})
	var b bool
	var err error
	if n := testing.AllocsPerRun(100, func() { b, err = ebvOf(both, dc) }); n != 0 {
		t.Errorf("ebvOf($x eq 7 and $x eq 7): %.0f allocations, want 0", n)
	}
	if err != nil || !b {
		t.Fatalf("ebvOf($x eq 7 and $x eq 7) = %v, %v; want true", b, err)
	}
	for _, it := range []Iterator{
		both,
		eq("x", item.Int(8)),
		eq("e", item.Int(1)), // the empty sequence: false
		&comparisonIter{op: "=", general: true, l: &varRefIter{name: "x"}, r: newLiteral(item.Str("7"))},
		&logicIter{l: eq("e", item.Int(1)), r: eq("x", item.Int(7))},
		&instanceOfIter{input: &varRefIter{name: "x"}, typ: ast.SequenceType{ItemType: "integer"}},
		&instanceOfIter{input: &varRefIter{name: "e"}, typ: ast.SequenceType{ItemType: "integer", Occurrence: "+"}},
	} {
		seq, err := Materialize(it, dc)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := item.EffectiveBoolean(seq)
		if got, err := ebvOf(it, dc); err != nil || got != want {
			t.Errorf("ebvOf = %v, %v; Stream yields %v", got, err, seq)
		}
	}
}

// localAllocs compiles a query over $seq, bound by the prolog to the
// sequence seqExpr builds from n, for a Spark-less engine, and returns the
// allocations of one evaluation of its body.
func localAllocs(t *testing.T, seqExpr, body string, n int) float64 {
	t.Helper()
	prog := compileQuery(t, testEnv(nil), fmt.Sprintf("declare variable $seq := %s; %s", fmt.Sprintf(seqExpr, n), body))
	dc := prog.GlobalContext()
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		err = prog.Root.Stream(dc, func(item.Item) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestPerItemBindingAllocs pins that binding a row allocates no context:
// $$ per item of a predicate or a simple map, and a FLWOR's tuple per
// clause. What remains per item of `$seq[$$ gt 1]` and `$seq ! ($$ + 1)` is
// $$'s one-item sequence; per tuple of the FLWOR, the values slice that
// extends it (tuple.with), the bound items being read in place.
func TestPerItemBindingAllocs(t *testing.T) {
	for _, body := range []string{`$seq[$$ gt 1]`, `$seq ! ($$ + 1)`} {
		perItem := (localAllocs(t, "1 to %d", body, 200) - localAllocs(t, "1 to %d", body, 100)) / 100
		if perItem > 1 {
			t.Errorf("%s: %.2f allocations per item, want at most 1 (no context)", body, perItem)
		}
	}
	const n = 1000
	objects := `for $i in 1 to %d return {"a": $i mod 3}`
	flwor := `for $o in $seq where $o.a eq 1 return $o`
	if got := localAllocs(t, objects, flwor, n); got > n+16 {
		t.Errorf("%s over %d items: %.0f allocations, want at most one per tuple plus 16", flwor, n, got)
	}
}
