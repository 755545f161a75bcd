package runtime

import (
	"rumble/internal/item"
	"rumble/internal/keytab"
)

// groupTable folds the tuples of one group-by evaluation into their groups
// and keeps the groups in first-seen key order. It is the one place the
// clause's grouping happens: the local pipeline runs one table over the
// whole stream, and the DataFrame step runs one per map partition (foldRow,
// emitting one partial group per key) and one per reduce partition
// (foldPartial, over the partials in map-partition order). A partition's
// first-seen order, read in map-partition order, is the stream's, so every
// path emits the same groups with the same keys and concatenations.
//
// Each row is keyed into one reused buffer, and a row that folds into an
// existing group allocates nothing when its carries are count-only: the
// counts sum into int64s and are boxed once, at emit. Group id, numbered by
// ids, has its output values (its first member's keys, then one slot per
// carry) at vals[id*len(g.frame):] and its counts at counts[id*len(g.carry):].
type groupTable struct {
	g      *groupByEval
	sc     *DynamicContext // the tuple scope key expressions run under; nil on the reduce side
	work   [][]item.Item   // the work frame's values, dead once a row's keys are read
	key    []byte          // the current row's exchange key
	ids    *keytab.Table
	vals   [][]item.Item
	counts []int64
}

// newTable returns the table of one clause evaluation (locally) or of one
// partition task (on the cluster). dc is nil on the reduce side, which
// folds partials and evaluates no key.
func (g *groupByEval) newTable(dc *DynamicContext) *groupTable {
	tb := &groupTable{g: g, ids: keytab.New(0)}
	if dc != nil {
		tb.sc = dc.tupleScope()
		tb.work = make([][]item.Item, 0, len(g.work)+len(g.carry))
	}
	return tb
}

// foldRow binds and validates the grouping keys of t and folds t into its
// group: a new group takes t's keys, a count-only carry adds t's count and
// a sequence carry appends t's items.
func (tb *groupTable) foldRow(t tuple) error {
	g := tb.g
	n := len(t.values)
	work := append(tb.work[:0], t.values...) // room for the keys and carries: never regrows
	tb.work = work
	for i, spec := range g.specs {
		var seq []item.Item
		switch {
		case spec.expr != nil:
			// A key expression sees the tuple and the keys bound before it.
			s, err := Materialize(spec.expr, tb.sc.rebind(g.work[:n+i], work))
			if err != nil {
				return err
			}
			seq = s
		case spec.src >= 0:
			seq = work[spec.src]
		default:
			return Errorf("group by: variable $%s is not bound", spec.varName)
		}
		if len(seq) > 1 {
			return Errorf("group by: key $%s binds a sequence of %d items", spec.varName, len(seq))
		}
		work = append(work, seq)
	}
	keys := work[n:]
	key := tb.key[:0]
	for i, seq := range keys {
		sk, err := item.EncodeSortKey(seq, false)
		if err != nil { // seq holds one item, and it is not atomic
			return Errorf("group by: key $%s binds a non-atomic %s item", g.specs[i].varName, seq[0].Kind())
		}
		key = item.AppendSortKey(key, sk)
	}
	tb.key = key
	for _, c := range g.carry {
		work = append(work, t.values[c.src])
	}
	id, fresh := tb.ids.IDBytes(key)
	tb.fold(id, fresh, work[n:], false)
	return nil
}

// foldPartial folds one partial group, as emitted by a map-side table, into
// the group of key. The partial's values are read, never written, so the
// records the exchange holds stay as they are and a recomputed partition
// reads them unchanged.
func (tb *groupTable) foldPartial(key string, t tuple) {
	id, fresh := tb.ids.ID(key)
	tb.fold(id, fresh, t.values, true)
}

// fold folds one member of group id into it: member holds its key values,
// then its carried sequences, a count-only one reduced to its count when
// the member is a partial. A fresh group takes the member's keys.
func (tb *groupTable) fold(id int32, fresh bool, member [][]item.Item, partial bool) {
	g := tb.g
	nk, nf, nc := len(g.specs), len(g.frame), len(g.carry)
	if fresh {
		tb.vals = append(append(keytab.Grow(tb.vals, nf), member[:nk]...), make([][]item.Item, nc)...)
		tb.counts = append(keytab.Grow(tb.counts, nc), make([]int64, nc)...)
	}
	vals, counts := tb.vals[int(id)*nf+nk:], tb.counts[int(id)*nc:]
	for j, c := range g.carry {
		seq := member[nk+j]
		switch {
		case c.countOnly && partial:
			counts[j] += int64(seq[0].(item.Int))
		case c.countOnly:
			counts[j] += int64(len(seq))
		case fresh:
			// Capped at its length, an adopted sequence is copied by the
			// first append, never appended to in place.
			vals[j] = seq[:len(seq):len(seq)]
		default:
			vals[j] = append(vals[j], seq...)
		}
	}
}

// emit yields every group, in first-seen key order, with its exchange key
// and its tuple under the clause's output frame.
func (tb *groupTable) emit(yield func(key string, t tuple) error) error {
	g := tb.g
	nf, nk, nc := len(g.frame), len(g.specs), len(g.carry)
	counted := 0 // count-only carries: the only ones boxed
	for _, c := range g.carry {
		if c.countOnly {
			counted++
		}
	}
	keys := tb.ids.Keys()
	boxes := make([]item.Item, len(keys)*counted) // the count-only sums, boxed
	//rumble:ctxpoll-ok emits the groups folded from checkpointing sources, at most one per row; a cancelled sink's yield error aborts it
	for id, key := range keys {
		vals := tb.vals[id*nf : (id+1)*nf : (id+1)*nf]
		for j, c := range g.carry {
			if c.countOnly {
				boxes[0] = item.Int(tb.counts[id*nc+j])
				vals[nk+j], boxes = boxes[:1:1], boxes[1:]
			}
		}
		if err := yield(key, tuple{names: g.frame, values: vals}); err != nil {
			return err
		}
	}
	return nil
}
