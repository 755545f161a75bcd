package vector

import (
	"fmt"
	"sync"

	"rumble/internal/functions"
	"rumble/internal/item"
	"rumble/internal/keytab"
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

// Groups is the grouped-aggregation hash table: rows bucket by the
// canonical sort-key encoding of their key columns (item.AppendSortKey),
// so two rows group together exactly when the tuple backend's group-by
// would bucket them. Groups emit in first-seen order, matching the tuple
// backend's output order.
//
// Group gi's key values are keys[gi*nKeys:], its accumulators
// aggs[gi*len(kinds):]. A pooled table keeps its key numbering, so a key
// it met in an earlier use costs no copy when a later morsel meets it.
type Groups struct {
	names  []string // the key variables, for errors
	nKeys  int
	kinds  []AggKind
	ids    *keytab.Table    // canonical keys, kept across the table's uses
	group  []int32          // per key id: 1 + its group in this use, 0 for none
	keyIDs []int32          // per group: its key id
	keys   []item.Item      // first-seen key values, nKeys per group (nil = absent)
	aggs   []functions.Fold // len(kinds) per group
	keyBuf []byte
}

// groupsPool keeps released tables, as GetScratch keeps scratches; a table
// that has numbered more than 4*BatchSize keys is left to the collector.
var groupsPool = sync.Pool{New: func() any { return &Groups{ids: keytab.New(0)} }}

// NewGroups returns an empty table, from the pool, for nKeys grouping keys
// and the given aggregate kinds.
func NewGroups(nKeys int, kinds []AggKind) *Groups {
	g := groupsPool.Get().(*Groups)
	g.names, g.nKeys, g.kinds = nil, nKeys, kinds
	return g
}

// Release empties g and returns it to the pool: g must not be used after.
// Under vectorpoison its keys and accumulators are overwritten first, so a
// table that still shares them fails loudly.
func (g *Groups) Release() {
	for _, id := range g.keyIDs {
		g.group[id] = 0
	}
	if Poison {
		fillCap(g.keys, item.Item(item.Str(poisonStr)))
		fillCap(g.aggs, functions.Fold{Kind: 255}) // finalizes to (), as no count does
	} else {
		clear(g.keys)
		clear(g.aggs)
	}
	g.keyIDs, g.keys, g.aggs = g.keyIDs[:0], g.keys[:0], g.aggs[:0]
	if g.ids.Len() <= 4*BatchSize {
		groupsPool.Put(g)
	}
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
		id, _ := g.ids.IDBytes(g.keyBuf)
		gi, fresh := g.groupOf(id)
		if fresh {
			for _, kc := range keyCols {
				g.keys = append(g.keys, kc.Item(i))
			}
		}
		aggs := g.aggs[gi*len(g.kinds):]
		for j, col := range aggCols {
			if err := foldRow(&aggs[j], col, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupOf returns the group of key id, opening it with empty accumulators
// (its key values are the caller's to append) when this use has none.
func (g *Groups) groupOf(id int32) (gi int, fresh bool) {
	if int(id) >= len(g.group) {
		g.group = append(g.group, make([]int32, int(id)+1-len(g.group))...)
	}
	if gi := g.group[id]; gi > 0 {
		return int(gi - 1), false
	}
	g.keyIDs = append(g.keyIDs, id)
	g.group[id] = int32(len(g.keyIDs))
	for _, kind := range g.kinds {
		g.aggs = append(g.aggs, functions.Fold{Kind: kind})
	}
	return len(g.keyIDs) - 1, true
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
// never on which worker processed which morsel. g copies what it takes,
// and other is released.
func (g *Groups) Merge(other *Groups) error {
	defer other.Release()
	na := len(g.kinds)
	for oi, oid := range other.keyIDs {
		id, _ := g.ids.ID(other.ids.Key(oid))
		gi, fresh := g.groupOf(id)
		if fresh {
			g.keys = append(g.keys, other.keys[oi*g.nKeys:(oi+1)*g.nKeys]...)
		}
		for j := range g.kinds {
			if err := g.aggs[gi*na+j].Merge(&other.aggs[oi*na+j]); err != nil {
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
	if g.Len() == 0 {
		id, _ := g.ids.ID("")
		g.groupOf(id)
	}
}

// Len returns the number of groups, in first-seen order.
func (g *Groups) Len() int { return len(g.keyIDs) }

// GrandCount returns the running count accumulator of a grand (no group-by)
// aggregation whose first aggregate is AggCount — 0 when no present value
// has been folded yet. Early-exit aggregates (exists/empty) poll it to stop
// scanning as soon as the answer is decided.
func (g *Groups) GrandCount() int64 {
	if g.Len() == 0 {
		return 0
	}
	return g.aggs[0].N()
}

// Key returns grouping key ki of group gi (nil = absent), the first-seen
// key value exactly as the tuple backend binds it.
func (g *Groups) Key(gi, ki int) item.Item { return g.keys[gi*g.nKeys+ki] }

// Agg finalizes aggregate j of group gi through Fold.Result: a nil result
// is the empty sequence.
func (g *Groups) Agg(gi, j int) (item.Item, error) { return g.aggs[gi*len(g.kinds)+j].Result() }
