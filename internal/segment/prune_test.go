package segment

import (
	"math"
	"math/rand"
	"testing"

	"rumble/internal/item"
)

// evalPredicate is the reference semantics a skip decision must respect:
// field lookup with vector's Lookup behavior (non-objects and missing keys
// yield absent, which a value comparison absorbs to false), then
// item.CompareValues — the engine's single source of comparison truth.
func evalPredicate(row item.Item, p Predicate) (matched, errored bool) {
	o, ok := row.(*item.Object)
	if !ok {
		return false, false
	}
	v, present := o.Get(p.Field)
	if !present {
		return false, false
	}
	c, err := item.CompareValues(v, p.Lit)
	if err != nil {
		return false, true
	}
	switch p.Op {
	case "eq":
		return c == 0, false
	case "ne":
		return c != 0, false
	case "lt":
		return c < 0, false
	case "le":
		return c <= 0, false
	case "gt":
		return c > 0, false
	case "ge":
		return c >= 0, false
	}
	return false, true
}

// chainOutcome walks the conjunct chain left to right the way the scan
// does: stop at the first failing conjunct; an error anywhere before that
// is an error the query must surface.
type chainOutcome int

const (
	chainRejected chainOutcome = iota // failed some conjunct, no error
	chainMatched                      // satisfied every conjunct
	chainErrored                      // errored before rejection
)

func evalChain(row item.Item, preds []Predicate) chainOutcome {
	for _, p := range preds {
		m, e := evalPredicate(row, p)
		if e {
			return chainErrored
		}
		if !m {
			return chainRejected
		}
	}
	return chainMatched
}

// zonesOf returns the zone maps ingest records for a segment of rows.
func zonesOf(t *testing.T, rows []item.Item) []ColZone {
	t.Helper()
	_, zones, err := Encode(rows)
	if err != nil {
		t.Fatal(err)
	}
	return zones
}

// requireSkipSound fails the test when Skip claims a segment is skippable
// but some row would have matched the chain or errored inside it.
func requireSkipSound(t *testing.T, rows []item.Item, preds []Predicate) bool {
	t.Helper()
	meta := Meta{Rows: len(rows), Cols: zonesOf(t, rows)}
	if !Skip(meta, preds) {
		return false
	}
	for i, r := range rows {
		switch evalChain(r, preds) {
		case chainMatched:
			t.Fatalf("Skip pruned a segment whose row %d (%v) matches %+v", i, r, preds)
		case chainErrored:
			t.Fatalf("Skip pruned a segment whose row %d (%v) errors in %+v", i, r, preds)
		}
	}
	return true
}

// TestSkipProperty: for randomized segments and predicate chains, a
// pruned segment never contains a row that matches or errors — pruning
// changes neither results nor error selection, only work.
func TestSkipProperty(t *testing.T) {
	values := []item.Item{
		nil, // absent
		item.Null{},
		item.Bool(true),
		item.Bool(false),
		item.Int(0),
		item.Int(1),
		item.Int(-5),
		item.Int(123),
		item.Int(1 << 62),
		item.Int(math.MaxInt64),
		item.Int(math.MinInt64),
		item.Double(0.5),
		item.Double(math.Copysign(0, -1)),
		item.Double(1e300),
		item.Double(math.Inf(1)),
		item.Double(math.Inf(-1)),
		item.Double(math.NaN()),
		item.Double(9223372036854775808), // 2^63: the key-order hazard zone
		dec("10000000000000001/10000000000000000"),
		dec("1"),
		dec("1/3"),
		item.Str(""),
		item.Str("a"),
		item.Str("zz"),
		item.NewArray([]item.Item{item.Int(1)}),
		obj("k", item.Int(1)),
	}
	lits := []item.Item{
		item.Int(0), item.Int(1), item.Int(7), item.Int(1 << 62), item.Int(math.MaxInt64),
		item.Double(0.5), item.Double(1e300), item.Double(9223372036854775808),
		item.Str(""), item.Str("a"), item.Str("m"),
		dec("10000000000000001/10000000000000000"), dec("3/2"),
	}
	ops := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	fields := []string{"a", "b", "c"}

	rng := rand.New(rand.NewSource(7))
	skips := 0
	for iter := 0; iter < 2000; iter++ {
		nrows := 1 + rng.Intn(24)
		rows := make([]item.Item, nrows)
		for i := range rows {
			if rng.Intn(12) == 0 {
				rows[i] = values[rng.Intn(len(values))] // sometimes a non-object row
				if rows[i] == nil {
					rows[i] = item.Null{}
				}
				continue
			}
			var keys []string
			var vals []item.Item
			for _, f := range fields {
				v := values[rng.Intn(len(values))]
				if v == nil {
					continue
				}
				keys = append(keys, f)
				vals = append(vals, v)
			}
			rows[i] = item.NewObject(keys, vals)
		}
		// Biasing toward a narrow value range makes disjoint predicates
		// common enough that the skip branch is exercised heavily.
		if rng.Intn(2) == 0 {
			for i := range rows {
				rows[i] = obj("a", item.Int(rng.Intn(5)), "b", item.Int(100+rng.Intn(5)))
			}
		}
		preds := make([]Predicate, 1+rng.Intn(3))
		for i := range preds {
			preds[i] = Predicate{
				Field: fields[rng.Intn(len(fields))],
				Op:    ops[rng.Intn(len(ops))],
				Lit:   lits[rng.Intn(len(lits))],
			}
		}
		if requireSkipSound(t, rows, preds) {
			skips++
		}
	}
	// The property is vacuous if pruning never fires; the biased half of
	// the iterations guarantees plenty of genuinely disjoint chains.
	if skips < 100 {
		t.Fatalf("only %d of 2000 iterations skipped — generator no longer exercises pruning", skips)
	}
}

// TestSkipPinned pins the individual pruning rules, including the
// correctness hazards that force conservatism.
func TestSkipPinned(t *testing.T) {
	intRows := func(vals ...int64) []item.Item {
		rows := make([]item.Item, len(vals))
		for i, v := range vals {
			rows[i] = obj("v", item.Int(v))
		}
		return rows
	}
	meta := func(rows []item.Item) Meta { return Meta{Rows: len(rows), Cols: zonesOf(t, rows)} }
	pred := func(op string, lit item.Item) []Predicate {
		return []Predicate{{Field: "v", Op: op, Lit: lit}}
	}

	cases := []struct {
		name  string
		rows  []item.Item
		preds []Predicate
		want  bool
	}{
		{"eq outside range skips", intRows(1, 2, 10), pred("eq", item.Int(100)), true},
		{"eq inside range scans", intRows(1, 2, 10), pred("eq", item.Int(2)), false},
		{"lt below min skips", intRows(10, 20), pred("lt", item.Int(10)), true},
		{"lt reaching min scans", intRows(10, 20), pred("lt", item.Int(11)), false},
		{"gt above max skips", intRows(10, 20), pred("gt", item.Int(20)), true},
		{"ge above max skips", intRows(10, 20), pred("ge", item.Int(21)), true},
		{"le below min skips", intRows(10, 20), pred("le", item.Int(9)), true},
		{"ne constant column skips", intRows(5, 5, 5), pred("ne", item.Int(5)), true},
		{"ne varied column scans", intRows(5, 6), pred("ne", item.Int(5)), false},
		{
			"column absent everywhere skips",
			intRows(1, 2),
			[]Predicate{{Field: "nope", Op: "eq", Lit: item.Int(1)}},
			true,
		},
		{
			// Dec("1.0000000000000001") > 1 matches `v gt 1`, but its sort
			// key collapses onto 1.0 below Int(1)'s key: without the Dec
			// guard the max<=lit rule would prune the matching row away.
			"decimal declines range pruning",
			[]item.Item{obj("v", dec("10000000000000001/10000000000000000"))},
			pred("gt", item.Int(1)),
			false,
		},
		{
			// The same sub-ulp collapse from the literal side: Double(1.0)
			// satisfies `v ne 1.0000000000000001` but shares the Dec
			// literal's sort key, so ne pruning must decline.
			"decimal literal declines ne pruning",
			[]item.Item{obj("v", item.Double(1))},
			pred("ne", dec("10000000000000001/10000000000000000")),
			false,
		},
		{
			// Same hazard, eq side: equal values encode equal keys even for
			// decimals, so eq pruning stays available.
			"decimal keeps eq pruning",
			[]item.Item{obj("v", dec("10000000000000001/10000000000000000"))},
			pred("eq", item.Int(5)),
			true,
		},
		{
			// Int(2^63-1) < Double(2^63) as values, but its sort key sits
			// above Double(2^63)'s: the magnitude guard declines the prune
			// that key order would wrongly allow.
			"2^63 neighborhood declines range pruning",
			intRows(math.MaxInt64),
			pred("lt", item.Double(9223372036854775808)),
			false,
		},
		{
			"boolean in column poisons numeric predicate",
			[]item.Item{obj("v", item.Bool(true))},
			pred("eq", item.Int(5)),
			false,
		},
		{
			"number in column poisons string predicate",
			[]item.Item{obj("v", item.Int(1))},
			pred("eq", item.Str("a")),
			false,
		},
		{
			"nested value poisons predicate",
			[]item.Item{obj("v", item.NewArray(nil))},
			pred("eq", item.Int(5)),
			false,
		},
		{
			// null < 5, so `v gt 5` rejects a null row without error: the
			// range rules prune it naturally.
			"all-null column skips gt",
			[]item.Item{obj("v", item.Null{})},
			pred("gt", item.Int(5)),
			true,
		},
		{
			// ...but `v lt 5` matches null rows, so no prune.
			"all-null column scans lt",
			[]item.Item{obj("v", item.Null{})},
			pred("lt", item.Int(5)),
			false,
		},
		{
			// An unsafe first conjunct blocks pruning on a disjoint second:
			// the error the first conjunct would raise must surface.
			"unsafe earlier conjunct blocks later disjoint",
			[]item.Item{obj("v", item.Bool(true), "w", item.Int(1))},
			[]Predicate{
				{Field: "v", Op: "eq", Lit: item.Int(5)},
				{Field: "w", Op: "eq", Lit: item.Int(99)},
			},
			false,
		},
		{
			"safe earlier conjunct passes through to disjoint",
			[]item.Item{obj("v", item.Int(3), "w", item.Int(1))},
			[]Predicate{
				{Field: "v", Op: "lt", Lit: item.Int(10)},
				{Field: "w", Op: "eq", Lit: item.Int(99)},
			},
			true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Skip(meta(tc.rows), tc.preds); got != tc.want {
				t.Fatalf("Skip = %v, want %v", got, tc.want)
			}
			if tc.want {
				requireSkipSound(t, tc.rows, tc.preds)
			}
		})
	}
}
