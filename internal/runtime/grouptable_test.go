package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rumble/internal/compiler"
	"rumble/internal/item"
	"rumble/internal/spark"
)

// The fold oracle: groupByEval's bindKeys and merge as they were before the
// group table replaced them, kept word for word but for their names, and
// the local evaluation that grouped their members in a map in first-seen
// key order. FuzzGroupTableMatchesMerge holds the table's row and partial
// folds to them.

type oracleKeyScope struct {
	sc   *DynamicContext
	work [][]item.Item
}

func (g *groupByEval) newOracleKeyScope(dc *DynamicContext) *oracleKeyScope {
	return &oracleKeyScope{sc: dc.tupleScope(), work: make([][]item.Item, 0, len(g.work))}
}

// oracleBindKeys binds and validates the grouping keys of t and returns the
// exchange key of its group with t's member tuple.
func (g *groupByEval) oracleBindKeys(ks *oracleKeyScope, t tuple) (string, tuple, error) {
	n := len(t.values)
	work := append(ks.work[:0], t.values...) // capacity len(g.work): never regrows
	ks.work = work
	member := make([][]item.Item, len(g.frame))
	for i, spec := range g.specs {
		var seq []item.Item
		switch {
		case spec.expr != nil:
			// A key expression sees the tuple and the keys bound before it.
			s, err := Materialize(spec.expr, ks.sc.rebind(g.work[:n+i], work))
			if err != nil {
				return "", tuple{}, err
			}
			seq = s
		case spec.src >= 0:
			seq = work[spec.src]
		default:
			return "", tuple{}, Errorf("group by: variable $%s is not bound", spec.varName)
		}
		if len(seq) > 1 {
			return "", tuple{}, Errorf("group by: key $%s binds a sequence of %d items", spec.varName, len(seq))
		}
		work = append(work, seq)
		member[i] = seq
	}
	key := make([]byte, 0, 64) // on the stack unless the keys render longer
	for _, seq := range member[:len(g.specs)] {
		sk, err := item.EncodeSortKey(seq, false)
		if err != nil {
			return "", tuple{}, Errorf("group by: %v", err)
		}
		key = item.AppendSortKey(key, sk)
	}
	for j, c := range g.carry {
		seq := t.values[c.src]
		if c.countOnly {
			seq = []item.Item{item.Int(len(seq))}
		}
		member[len(g.specs)+j] = seq
	}
	return string(key), tuple{names: g.frame, values: member}, nil
}

// oracleMerge folds the member tuples of one group into the group's tuple:
// the keys of the first member (all members agree), each carried variable
// re-bound to the concatenation of its values across the group, or to the
// sum of the lengths when only its count is consumed.
func (g *groupByEval) oracleMerge(members []tuple) tuple {
	out := make([][]item.Item, len(g.frame))
	nk := len(g.specs)
	copy(out, members[0].values[:nk])
	for j, c := range g.carry {
		slot := nk + j
		if c.countOnly {
			var n int64
			for _, m := range members {
				n += int64(m.values[slot][0].(item.Int))
			}
			out[slot] = []item.Item{item.Int(n)}
			continue
		}
		var all []item.Item
		for _, m := range members {
			all = append(all, m.values[slot]...)
		}
		out[slot] = all
	}
	return tuple{names: g.frame, values: out}
}

// oracleGroups groups rows the way the local clause did before the table:
// members per key in a map, merged in first-seen key order.
func oracleGroups(g *groupByEval, dc *DynamicContext, rows []tuple) ([]string, []tuple, error) {
	groups := make(map[string][]tuple)
	var order []string // first-seen key order
	ks := g.newOracleKeyScope(dc)
	for _, t := range rows {
		k, member, err := g.oracleBindKeys(ks, t)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], member)
	}
	out := make([]tuple, len(order))
	for i, k := range order {
		out[i] = g.oracleMerge(groups[k])
	}
	return order, out, nil
}

// renderItems renders a sequence with each item's Go type, so 1, 1.0 and
// 1e0 (and 0 and -0) stay apart.
func renderItems(seq []item.Item) string {
	parts := make([]string, len(seq))
	for i, it := range seq {
		parts[i] = fmt.Sprintf("%T(%v)", it, it)
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// renderGroups renders emitted groups, each with its exchange key.
func renderGroups(keys []string, groups []tuple) []string {
	out := make([]string, len(groups))
	for i, t := range groups {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%q:", keys[i])
		for _, seq := range t.values {
			sb.WriteString(renderItems(seq))
		}
		out[i] = sb.String()
	}
	return out
}

// collectEmit drains a table's emit.
func collectEmit(tb *groupTable) ([]string, []tuple, error) {
	var keys []string
	var groups []tuple
	err := tb.emit(func(key string, t tuple) error {
		keys = append(keys, key)
		groups = append(groups, t)
		return nil
	})
	return keys, groups, err
}

// snapshot renders a partial's values out to the capacity of each
// sequence, so a write past a slice's length shows too.
func snapshot(t tuple) string {
	var sb strings.Builder
	for _, seq := range t.values {
		sb.WriteString(renderItems(seq[:cap(seq)]))
	}
	return sb.String()
}

// groupFuzzRows draws n rows under the frame x, y, s, c: keys among 1,
// 1.0, 1e0, 0e0, -0e0, strings and the empty sequence, and carries of zero
// to three items numbering the row. With bad, one row binds x to two
// items.
func groupFuzzRows(rng *rand.Rand, n int, bad bool) []tuple {
	one := func(it item.Item) []item.Item { return []item.Item{it} }
	dec, _ := item.DecimalFromString("1.0")
	xs := [][]item.Item{one(item.Int(1)), one(dec), one(item.Double(1)), one(item.Double(0)),
		one(item.Double(math.Copysign(0, -1))), one(item.Str("a")), one(item.Str("")), nil}
	ys := [][]item.Item{one(item.Str("p")), one(item.Str("q")), nil}
	carry := func(i int) []item.Item {
		var seq []item.Item
		for j := rng.Intn(4); j > 0; j-- {
			seq = append(seq, item.Int(int64(i*10+j)))
		}
		return seq
	}
	frame := []string{"x", "y", "s", "c"}
	rows := make([]tuple, n)
	for i := range rows {
		rows[i] = tuple{names: frame, values: [][]item.Item{xs[rng.Intn(len(xs))], ys[rng.Intn(len(ys))], carry(i), carry(i)}}
	}
	if bad && n > 0 {
		rows[rng.Intn(n)].values[0] = []item.Item{item.Int(1), item.Int(2)}
	}
	return rows
}

// groupFuzzShapes are the group-by clauses the fuzz draws from, over the
// frame x, y, s, c.
func groupFuzzShapes() []*groupByEval {
	frame := []string{"x", "y", "s", "c"}
	count := map[string]compiler.VarUsage{"c": compiler.UsageCountOnly}
	return []*groupByEval{
		// A variable key; y and s carried whole, c by its count.
		newGroupByEval(nil, frame, []groupSpecEval{{varName: "x"}}, count),
		// An expression key and a variable key; x carried whole.
		newGroupByEval(nil, frame, []groupSpecEval{{varName: "k", expr: &varRefIter{name: "x"}}, {varName: "y"}}, count),
		// Count-only carries only.
		newGroupByEval(nil, frame, []groupSpecEval{{varName: "y"}}, map[string]compiler.VarUsage{
			"x": compiler.UsageCountOnly, "s": compiler.UsageUnused, "c": compiler.UsageCountOnly}),
		// No carries.
		newGroupByEval(nil, frame, []groupSpecEval{{varName: "x"}, {varName: "y"}}, map[string]compiler.VarUsage{
			"s": compiler.UsageUnused, "c": compiler.UsageUnused}),
	}
}

// checkGroupTable holds the group table to the oracle on one draw: one
// table over every row (the local path), and one table per partition whose
// partials a reduce table folds in partition order (the DataFrame path),
// twice, leaving the rows and the partials as they were.
func checkGroupTable(t *testing.T, seed int64, n, parts, shape int, bad bool) {
	rng := rand.New(rand.NewSource(seed))
	g := groupFuzzShapes()[shape]
	rows := groupFuzzRows(rng, n, bad)
	dc := NewDynamicContext()
	what := fmt.Sprintf("seed %d, %d rows, %d partitions, shape %d", seed, n, parts, shape)

	rowSnaps := make([]string, len(rows))
	for i, r := range rows {
		rowSnaps[i] = snapshot(r)
	}
	wantKeys, wantGroups, wantErr := oracleGroups(g, dc, rows)
	local := g.newTable(dc)
	var err error
	for _, r := range rows {
		if err = local.foldRow(r); err != nil {
			break
		}
	}
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: local fold error %v, want %v", what, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: local fold: %v", what, err)
	}
	want := renderGroups(wantKeys, wantGroups)
	keys, groups, err := collectEmit(local)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGroups(keys, groups); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: local table\ngot  %v\nwant %v", what, got, want)
	}

	// Cut the rows into parts contiguous partitions, some of them empty.
	cuts := make([]int, parts-1)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	sort.Ints(cuts)
	bounds := append(append([]int{0}, cuts...), n)
	var partialKeys []string
	var partials []tuple
	for p := 0; p < parts; p++ {
		tb := g.newTable(dc)
		for _, r := range rows[bounds[p]:bounds[p+1]] {
			if err := tb.foldRow(r); err != nil {
				t.Fatalf("%s: partition %d: %v", what, p, err)
			}
		}
		k, ps, err := collectEmit(tb)
		if err != nil {
			t.Fatal(err)
		}
		partialKeys, partials = append(partialKeys, k...), append(partials, ps...)
	}
	snaps := make([]string, len(partials))
	for i, p := range partials {
		snaps[i] = snapshot(p)
	}
	for run := 0; run < 2; run++ {
		reduce := g.newTable(nil)
		for i, p := range partials {
			reduce.foldPartial(partialKeys[i], p)
		}
		keys, groups, err := collectEmit(reduce)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderGroups(keys, groups); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reduce run %d\ngot  %v\nwant %v", what, run, got, want)
		}
	}
	for i, p := range partials {
		if s := snapshot(p); s != snaps[i] {
			t.Fatalf("%s: partial %d changed under the reduce\nwas %s\nnow %s", what, i, snaps[i], s)
		}
	}
	for i, r := range rows {
		if s := snapshot(r); s != rowSnaps[i] {
			t.Fatalf("%s: row %d changed under the folds\nwas %s\nnow %s", what, i, rowSnaps[i], s)
		}
	}
}

// FuzzGroupTableMatchesMerge holds the group table to the bindKeys and
// merge it replaced: folding every row into one table, and folding each of
// one to eight partitions into a table of its own and then the partials,
// in partition order, into another, give the oracle's groups in its order,
// with its key values (1 against 1.0, 0.0 against -0.0) and its carry
// concatenations; a row whose key binds two items fails with its text; and
// no fold writes into the rows or partials it reads.
func FuzzGroupTableMatchesMerge(f *testing.F) {
	for _, s := range []struct {
		seed         int64
		n            uint16
		parts, shape uint8 // parts is one less than the partitions cut
		bad          bool
	}{
		{0, 0, 0, 0, false}, {1, 1, 2, 1, false}, {0, 200, 2, 0, false}, {1, 200, 1, 0, false},
		{2, 50, 2, 1, false}, {4, 50, 1, 0, false}, {5, 120, 7, 2, false}, {6, 90, 4, 3, false},
		{7, 60, 2, 0, true}, {8, 500, 6, 1, false},
	} {
		f.Add(s.seed, s.n, s.parts, s.shape, s.bad)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, parts, shape uint8, bad bool) {
		checkGroupTable(t, seed, int(n)%2000, int(parts)%8+1, int(shape)%len(groupFuzzShapes()), bad)
	})
}

// TestGroupStepRecomputes runs one DataFrame group step through two
// actions, Count and then Collect: both reduce the one exchange the step
// shuffled once, so a reduce that wrote into the partials it read would
// count or collect different groups the second time. Both give the groups
// of one local table.
func TestGroupStepRecomputes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := groupFuzzRows(rng, 3000, false)
	dc := NewDynamicContext()
	for shape, g := range groupFuzzShapes() {
		local := g.newTable(dc)
		for _, r := range rows {
			if err := local.foldRow(r); err != nil {
				t.Fatal(err)
			}
		}
		keys, groups, err := collectEmit(local)
		if err != nil {
			t.Fatal(err)
		}
		want := renderGroups(make([]string, len(keys)), groups)
		sort.Strings(want)

		ctx := spark.NewContext(spark.Config{Parallelism: 4, Executors: 2})
		out, err := dfGroupStep(g)(spark.Parallelize(ctx, rows, 6), dc)
		if err != nil {
			t.Fatal(err)
		}
		n, err := spark.Count(out)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) {
			t.Errorf("shape %d: Count gives %d groups, want %d", shape, n, len(want))
		}
		for run := 0; run < 2; run++ {
			got, err := spark.Collect(out)
			if err != nil {
				t.Fatal(err)
			}
			rendered := renderGroups(make([]string, len(got)), got)
			sort.Strings(rendered)
			if !reflect.DeepEqual(rendered, want) {
				t.Fatalf("shape %d: Collect %d after Count\ngot  %.600v\nwant %.600v", shape, run+1, rendered, want)
			}
		}
	}
}
