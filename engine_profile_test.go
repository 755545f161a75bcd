package rumble

import (
	"context"
	"strings"
	"testing"

	"rumble/internal/profile"
)

// profileEngine builds an engine with the vector conformance collections
// registered, at the given worker count and vectorization setting.
func profileEngine(t *testing.T, workers int, vectorize bool) *Engine {
	t.Helper()
	eng := New(Config{Parallelism: 4, Executors: workers, Vectorize: vectorize})
	vectorConformanceData(t, eng)
	return eng
}

// opRows is a profile operator stripped to its deterministic parts: the
// structural identity (name, input edge) and the row/batch counts. Wall
// times and busy/wait splits are timing-dependent and excluded.
type opRows struct {
	Name    string
	Input   int
	RowsIn  int64
	RowsOut int64
	Batches int64
}

func deterministicOps(snap ProfileSnapshot) []opRows {
	out := make([]opRows, len(snap.Ops))
	for i, op := range snap.Ops {
		out[i] = opRows{Name: op.Name, Input: op.Input, RowsIn: op.RowsIn,
			RowsOut: op.RowsOut, Batches: op.Batches}
	}
	return out
}

// TestVectorProfileDeterminism pins that per-operator profile counts are a
// property of the plan and the data, not of the schedule: the morsel
// boundaries are fixed by the scan, so rows in/out and batch counts per
// operator must be bit-identical across worker-pool sizes — only the
// timings may differ. Runs the main vector shapes (filter, group,
// order-by, hash join) at Executors 1, 2 and 8.
func TestVectorProfileDeterminism(t *testing.T) {
	queries := []struct{ name, query string }{
		{"filter-project", `for $o in collection("wide")
			where $o.v mod 2 eq 0
			return { "g": $o.g, "v": $o.v }`},
		{"group-agg", `for $o in collection("wide")
			group by $g := $o.g
			return { "g": $g, "n": count($o), "s": sum($o.v) }`},
		{"sort", `for $o in collection("wide")
			where $o.g lt 5
			order by $o.v descending
			return $o.v`},
		{"join", `for $o in collection("wide")
			for $d in collection("dims")
			where $o.g eq $d.g
			return { "v": $o.v, "name": $d.name }`},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			var want []opRows
			var wantItems int
			for _, workers := range []int{1, 2, 8} {
				eng := profileEngine(t, workers, true)
				st, err := eng.Compile(tc.query)
				if err != nil {
					t.Fatal(err)
				}
				if st.Mode() != "Vector" {
					t.Fatalf("mode = %s, want Vector", st.Mode())
				}
				prof := st.NewProfile()
				items, err := st.CollectProfiled(context.Background(), 0, prof)
				if err != nil {
					t.Fatal(err)
				}
				snap := prof.Snapshot()
				if snap.Workers != int64(workers) {
					t.Errorf("workers-%d: snapshot workers = %d", workers, snap.Workers)
				}
				got := deterministicOps(snap)
				if workers == 1 {
					want, wantItems = got, len(items)
					// The scan operator must have recorded real work.
					rows := int64(0)
					for _, op := range got {
						rows += op.RowsOut
					}
					if rows == 0 {
						t.Fatalf("profile recorded no rows: %+v", got)
					}
					continue
				}
				if len(items) != wantItems {
					t.Errorf("workers-%d: %d items, want %d", workers, len(items), wantItems)
				}
				if len(got) != len(want) {
					t.Fatalf("workers-%d: %d operators, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("workers-%d: operator %d = %+v, want %+v", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestProfilingDoesNotChangeResults pins the observer effect away: the
// same statement evaluated with a live profile and with profiling off
// (nil) must produce identical results — and identical errors — in all
// four execution modes.
func TestProfilingDoesNotChangeResults(t *testing.T) {
	cases := []struct {
		name      string
		query     string
		vectorize bool
		wantMode  string
		wantErr   bool
	}{
		{name: "local-pushdown", query: `count(parallelize(1 to 100))`, wantMode: "Local"},
		{name: "local-flwor", query: `sum(for $x in 1 to 50 where $x mod 3 eq 0 return $x)`, wantMode: "Local"},
		{name: "rdd", query: `distinct-values(parallelize((1, 2, 2, 3, 3, 3)))`, wantMode: "RDD"},
		{name: "dataframe", query: `for $x in parallelize(1 to 100) where $x mod 2 eq 0 return $x * $x`, wantMode: "DataFrame"},
		{name: "dataframe-group", query: `for $o in collection("wide")
			group by $g := $o.g
			return { "g": $g, "n": count($o) }`, wantMode: "DataFrame"},
		{name: "vector-group", query: `for $o in collection("wide")
			group by $g := $o.g
			return { "g": $g, "n": count($o), "s": sum($o.v) }`, vectorize: true, wantMode: "Vector"},
		{name: "vector-sort", query: `for $o in collection("wide")
			where $o.g lt 3
			order by $o.v descending
			return $o.v`, vectorize: true, wantMode: "Vector"},
		{name: "vector-error", query: `for $o in collection("widebad")
			group by $g := $o.g
			return { "g": $g, "s": sum($o.v) }`, vectorize: true, wantMode: "Vector", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := profileEngine(t, 4, tc.vectorize)
			st, err := eng.Compile(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if st.Mode() != tc.wantMode {
				t.Fatalf("mode = %s, want %s", st.Mode(), tc.wantMode)
			}
			plain, plainErr := st.CollectProfiled(context.Background(), 0, nil)
			profiled, profErr := st.CollectProfiled(context.Background(), 0, st.NewProfile())
			if tc.wantErr {
				if plainErr == nil || profErr == nil {
					t.Fatalf("errors: plain=%v profiled=%v, want both non-nil", plainErr, profErr)
				}
				if plainErr.Error() != profErr.Error() {
					t.Errorf("profiling changed the error: %q vs %q", plainErr, profErr)
				}
				return
			}
			if plainErr != nil || profErr != nil {
				t.Fatalf("errors: plain=%v profiled=%v", plainErr, profErr)
			}
			if len(plain) != len(profiled) {
				t.Fatalf("profiling changed the result size: %d vs %d", len(plain), len(profiled))
			}
			// Group output order across the shuffle is deterministic for a
			// fixed worker count, so item-by-item comparison is fair here.
			for i := range plain {
				a, b := string(plain[i].AppendJSON(nil)), string(profiled[i].AppendJSON(nil))
				if a != b {
					t.Errorf("item %d: plain %s, profiled %s", i, a, b)
				}
			}
		})
	}
}

// TestExplainAnalyzeAllModes is the acceptance gate for the analyze
// surface: in each of the four execution modes the rendered plan carries
// the mode bracket, at least one live per-operator annotation with rows
// and wall time, and the result footer.
func TestExplainAnalyzeAllModes(t *testing.T) {
	cases := []struct {
		name      string
		query     string
		vectorize bool
		mode      string
	}{
		{name: "Local", query: `sum(for $x in 1 to 50 where $x mod 3 eq 0 return $x)`, mode: "Local"},
		{name: "RDD", query: `distinct-values(parallelize((1, 2, 2, 3)))`, mode: "RDD"},
		{name: "DataFrame", query: `for $x in parallelize(1 to 100) where $x mod 2 eq 0 return $x * $x`, mode: "DataFrame"},
		{name: "Vector", query: `for $o in collection("wide")
			group by $g := $o.g
			return { "g": $g, "n": count($o) }`, vectorize: true, mode: "Vector"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := profileEngine(t, 4, tc.vectorize)
			st, err := eng.Compile(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if st.Mode() != tc.mode {
				t.Fatalf("mode = %s, want %s", st.Mode(), tc.mode)
			}
			plan, err := st.ExplainAnalyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "["+tc.mode+"]") {
				t.Errorf("plan lost the mode bracket:\n%s", plan)
			}
			if !strings.Contains(plan, "out=") || !strings.Contains(plan, "ms)") {
				t.Errorf("plan has no live operator annotation:\n%s", plan)
			}
			if !strings.Contains(plan, "-- result: ") {
				t.Errorf("plan has no result footer:\n%s", plan)
			}
		})
	}
}

// TestExplainAnalyzeVectorDetails pins the vector rendering specifics: the
// scan line carries morsel batch counts, downstream lines derive rows-in
// from their input operator, and the parallel run reports its worker
// busy/wait footer.
func TestExplainAnalyzeVectorDetails(t *testing.T) {
	eng := profileEngine(t, 4, true)
	plan, err := eng.ExplainAnalyze(`for $o in collection("wide")
		where $o.v mod 2 eq 0
		return { "g": $o.g }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batches=", "in=", "-- workers: 4 (busy "} {
		if !strings.Contains(plan, want) {
			t.Errorf("analyze output missing %q:\n%s", want, plan)
		}
	}
}

// TestProfileSnapshotShape pins the JSON-facing snapshot invariants the
// server and docs rely on: rows_in derivation from the input edge and the
// ring's newest-first bounded eviction.
func TestProfileSnapshotShape(t *testing.T) {
	eng := profileEngine(t, 2, true)
	st, err := eng.Compile(`for $o in collection("wide") return $o.v`)
	if err != nil {
		t.Fatal(err)
	}
	prof := st.NewProfile()
	if _, err := st.CollectProfiled(context.Background(), 0, prof); err != nil {
		t.Fatal(err)
	}
	snap := prof.Snapshot()
	for i, op := range snap.Ops {
		if op.Input < 0 {
			if op.RowsIn != -1 {
				t.Errorf("op %d (%s): source rows_in = %d, want -1", i, op.Name, op.RowsIn)
			}
			continue
		}
		if want := snap.Ops[op.Input].RowsOut; op.RowsIn != want {
			t.Errorf("op %d (%s): rows_in = %d, want input's rows_out %d", i, op.Name, op.RowsIn, want)
		}
	}
	ring := profile.NewRing(2)
	for _, id := range []string{"a", "b", "c"} {
		ring.Add(profile.Snapshot{QueryID: id})
	}
	got := ring.Snapshots()
	if len(got) != 2 || got[0].QueryID != "c" || got[1].QueryID != "b" {
		t.Errorf("ring = %+v, want newest-first [c b]", got)
	}
}

// TestExplainAnalyzeJoinProbeFilter pins the tuple join's probe-filter
// rows: the join emits the four orders with a customer, and the probe
// filter's line under it reports the two of them it passed — orders 2
// and 3.
func TestExplainAnalyzeJoinProbeFilter(t *testing.T) {
	eng := joinTestEngine(t, Config{Parallelism: 2, Executors: 2})
	// The array constructor consumes the join through the local tuple
	// pipeline.
	plan, err := eng.ExplainAnalyze(`[for $o in collection("orders")
		for $c in collection("customers")
		where $o.cust eq $c.cid and $o.amount gt 5
		return $o.oid]`)
	if err != nil {
		t.Fatal(err)
	}
	var join, probe string
	for _, line := range strings.Split(plan, "\n") {
		switch trimmed := strings.TrimSpace(line); {
		case strings.HasPrefix(trimmed, "Join[hash]"):
			join = trimmed
		case strings.HasPrefix(trimmed, "probe where: "):
			probe = trimmed
		}
	}
	if !strings.Contains(join, "(out=4 ") || !strings.Contains(probe, "(in=4 out=2 ") {
		t.Errorf("join line %q and probe filter line %q, want out=4 and in=4 out=2:\n%s", join, probe, plan)
	}
}
