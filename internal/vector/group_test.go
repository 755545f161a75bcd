package vector

import (
	"fmt"
	"testing"

	"rumble/internal/item"
)

// groupBatch is one batch of n rows over k groups: integer keys cycling
// through 0..k-1 and integer values. Both stay below 256, which item.Int
// boxes without allocating, so any allocation a fold makes is the table's.
func groupBatch(n, k int) (keys, vals *Col) {
	ks, vs := make([]item.Item, n), make([]item.Item, n)
	for i := range ks {
		ks[i], vs[i] = item.Int(int64(i%k)), item.Int(int64(i%200))
	}
	return colOf(ks...), colOf(vs...)
}

// TestGroupsUpdateAllocs holds vector.Groups to the group table's rule: a
// row that folds into an existing group allocates nothing, and a released
// table drawn again from the pool for a morsel with the same keys numbers
// them without a copy into storage it keeps. AllocsPerRun runs on one P,
// so the pool hands back the table just released, except under the race
// detector, whose pool drops a random share of what it is given.
func TestGroupsUpdateAllocs(t *testing.T) {
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}
	keys, vals := groupBatch(BatchSize, 50)
	aggs := []*Col{vals, vals, vals, vals, vals}
	g := NewGroups(1, kinds)
	update := func() {
		if err := g.Update([]*Col{keys}, aggs, BatchSize); err != nil {
			t.Fatal(err)
		}
	}
	update() // makes the groups
	if n := testing.AllocsPerRun(20, update); n != 0 {
		t.Errorf("%.0f allocations per batch into existing groups, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { g.Release(); g = NewGroups(1, kinds); update() }); n != 0 && !raceEnabled {
		t.Errorf("%.0f allocations per morsel on a reused table with the same keys, want 0", n)
	}
	if g.Len() != 50 || g.Key(49, 0) != item.Int(49) {
		t.Fatalf("reused table: %d groups, last key %v; want 50, 49", g.Len(), g.Key(49, 0))
	}
	for j, want := range []string{"20", "2480", "124", "49", "199"} { // rows 49, 99, ..., 999
		if res, err := g.Agg(49, j); err != nil || res.String() != want {
			t.Errorf("reused table: agg %d of group 49 = %v, %v; want %s", j, res, err, want)
		}
	}
}

// TestGroupsMergeCopiesPartials: Merge releases the partial it folds in,
// and the merged table, empty at first, keeps no storage of it, so neither
// the release (under the vectorpoison tag, sentinels) nor tables drawn from
// the pool afterwards change what the merged table holds.
func TestGroupsMergeCopiesPartials(t *testing.T) {
	kinds := []AggKind{AggCount, AggMin}
	fold := func(g *Groups, keys ...item.Item) *Groups {
		kc := colOf(keys...)
		if err := g.Update([]*Col{kc}, []*Col{kc, kc}, len(keys)); err != nil {
			t.Fatal(err)
		}
		return g
	}
	merged := NewGroups(1, kinds)
	for _, part := range [][]item.Item{{item.Str("b"), item.Str("a"), item.Str("c")}, {item.Str("a")}} {
		if err := merged.Merge(fold(NewGroups(1, kinds), part...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		fold(NewGroups(1, kinds), item.Str("x"), item.Str("y"), item.Str("z"), item.Str("w")).Release()
	}
	var got []string
	for gi := 0; gi < merged.Len(); gi++ {
		n, _ := merged.Agg(gi, 0)
		lo, _ := merged.Agg(gi, 1)
		got = append(got, merged.Key(gi, 0).String()+":"+n.String()+":"+lo.String())
	}
	if s := fmt.Sprint(got); s != "[b:1:b a:2:a c:1:c]" {
		t.Errorf("merged groups %s after the partials were released, want [b:1:b a:2:a c:1:c]", s)
	}
}
