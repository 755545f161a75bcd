package vector

import (
	"fmt"

	"rumble/internal/functions"
	"rumble/internal/item"
)

// AggKind names an aggregate the grouped pipeline folds columnar-ly: the
// kind of the one accumulator every backend folds through.
type AggKind = functions.AggKind

// The aggregates the backend folds without materializing groups.
const (
	AggCount = functions.AggCount
	AggSum   = functions.AggSum
	AggAvg   = functions.AggAvg
	AggMin   = functions.AggMin
	AggMax   = functions.AggMax
)

// groupState is one group: the first-seen key values (nil = absent), the
// canonical key encoding it buckets under (kept so partial tables merge
// without re-encoding), and one accumulator per aggregate.
type groupState struct {
	key  string
	keys []item.Item
	aggs []functions.Fold
}

// Groups is the grouped-aggregation hash table: rows bucket by the
// canonical sort-key encoding of their key columns (item.AppendSortKey),
// so two rows group together exactly when the tuple backend's group-by
// would bucket them. Groups emit in first-seen order, matching the tuple
// backend's output order.
type Groups struct {
	names  []string // the key variables, for errors
	kinds  []AggKind
	m      map[string]*groupState
	order  []*groupState
	keyBuf []byte
}

// NewGroups creates a table for nKeys grouping keys and the given
// aggregate kinds.
func NewGroups(nKeys int, kinds []AggKind) *Groups {
	return &Groups{kinds: kinds, m: map[string]*groupState{}}
}

// Named names the variables the keys bind, in key order, for Update's
// errors, and returns g. An unnamed key is named by its position.
func (g *Groups) Named(names []string) *Groups {
	g.names = names
	return g
}

// Update folds one batch of n rows into the table: keyCols are the
// grouping key columns (already in spec order), aggCols the per-aggregate
// argument columns (aligned with the kinds passed to NewGroups).
func (g *Groups) Update(keyCols, aggCols []*Col, n int) error {
	for i := 0; i < n; i++ {
		g.keyBuf = g.keyBuf[:0]
		for k, kc := range keyCols {
			sk, err := kc.SortKey(i)
			if err != nil {
				// A key row holds one item, and it is not atomic: the
				// tuple backend's group-by wording.
				name := fmt.Sprintf("%d", k+1)
				if k < len(g.names) {
					name = "$" + g.names[k]
				}
				return fmt.Errorf("group by: key %s binds a non-atomic %s item", name, kc.Item(i).Kind())
			}
			g.keyBuf = item.AppendSortKey(g.keyBuf, sk)
		}
		st, ok := g.m[string(g.keyBuf)]
		if !ok {
			keys := make([]item.Item, len(keyCols))
			for k, kc := range keyCols {
				keys[k] = kc.Item(i)
			}
			st = g.add(string(g.keyBuf), keys)
		}
		for j, col := range aggCols {
			if err := foldRow(&st.aggs[j], col, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// add appends a new group with empty accumulators in first-seen order.
func (g *Groups) add(key string, keys []item.Item) *groupState {
	st := &groupState{key: key, keys: keys, aggs: make([]functions.Fold, len(g.kinds))}
	for j, kind := range g.kinds {
		st.aggs[j].Kind = kind
	}
	g.m[key] = st
	g.order = append(g.order, st)
	return st
}

// foldRow folds row i of col into one accumulator. Absent rows contribute
// nothing, exactly as they are missing from the materialized sequence the
// tuple backend folds; integer rows enter unboxed, and a count reads only
// a row's presence.
func foldRow(a *functions.Fold, col *Col, i int) error {
	j := col.idx(i)
	switch tag := col.Tags[j]; {
	case tag == TagAbsent:
		return nil
	case tag == TagInt:
		return a.AddInt(col.Ints[j])
	case a.Kind == AggCount:
		return a.AddInt(0)
	default:
		return a.Add(col.Item(i))
	}
}

// Merge folds other's groups into g, preserving global first-seen order
// when partial tables are merged in morsel index order: other's new groups
// append after g's in other's own first-seen order, and an existing
// group's accumulators merge other's as the later partial (Fold.Merge).
// Merging per-morsel partials left to right is the parallel backend's
// determinism contract — the result depends only on the morsel order,
// never on which worker processed which morsel.
func (g *Groups) Merge(other *Groups) error {
	for _, ost := range other.order {
		st, ok := g.m[ost.key]
		if !ok {
			// Adopt the partial state wholesale: first-seen keys and
			// accumulators travel as-is.
			g.m[ost.key] = ost
			g.order = append(g.order, ost)
			continue
		}
		for j := range st.aggs {
			if err := st.aggs[j].Merge(&ost.aggs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnsureGrand guarantees the single group of a grand (no group-by)
// aggregation exists, so empty input still finalizes to the builtin
// aggregates' empty-sequence results (count 0, sum 0, empty avg/min/max).
func (g *Groups) EnsureGrand() {
	if len(g.order) == 0 {
		g.add("", nil)
	}
}

// Len returns the number of groups, in first-seen order.
func (g *Groups) Len() int { return len(g.order) }

// GrandCount returns the running count accumulator of a grand (no group-by)
// aggregation whose first aggregate is AggCount — 0 when no present value
// has been folded yet. Early-exit aggregates (exists/empty) poll it to stop
// scanning as soon as the answer is decided.
func (g *Groups) GrandCount() int64 {
	if len(g.order) == 0 {
		return 0
	}
	return g.order[0].aggs[0].N()
}

// Key returns grouping key ki of group gi (nil = absent), the first-seen
// key value exactly as the tuple backend binds it.
func (g *Groups) Key(gi, ki int) item.Item { return g.order[gi].keys[ki] }

// Agg finalizes aggregate j of group gi through Fold.Result: a nil result
// is the empty sequence.
func (g *Groups) Agg(gi, j int) (item.Item, error) { return g.order[gi].aggs[j].Result() }
