package runtime

import "rumble/internal/item"

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
// counts sum into int64s and are boxed once, at emit. Groups, their values
// and their counts are cut from storage that never copies as it grows.
type groupTable struct {
	g      *groupByEval
	sc     *DynamicContext // the tuple scope key expressions run under; nil on the reduce side
	work   [][]item.Item   // the work frame's values, dead once a row's keys are read
	key    []byte          // the current row's exchange key
	index  map[string]*group
	groups chunks[group]     // first-seen order
	vals   slab[[]item.Item] // group values, len(g.frame) each
	counts slab[int64]       // count-only sums, len(g.carry) each
	boxes  slab[item.Item]   // emitted counts
}

// group is the state of one group: its exchange key and its output values,
// the keys of its first member and then one slot per carried variable. A
// count-only slot is filled from counts at emit. A shared group holds a
// partial as it came off the exchange, read in place until the first fold
// into it copies it.
type group struct {
	key    string
	values [][]item.Item
	counts []int64 // per carry; the sum of a count-only one
	shared bool
}

// newTable returns the table of one clause evaluation (locally) or of one
// partition task (on the cluster). dc is nil on the reduce side, which
// folds partials and evaluates no key.
func (g *groupByEval) newTable(dc *DynamicContext) *groupTable {
	tb := &groupTable{g: g, index: make(map[string]*group)}
	if dc != nil {
		tb.sc = dc.tupleScope()
		tb.work = make([][]item.Item, 0, len(g.work))
	}
	return tb
}

// foldRow binds and validates the grouping keys of t and folds t into its
// group: a new group takes t's keys, a count-only carry adds t's count and
// a sequence carry appends t's items.
func (tb *groupTable) foldRow(t tuple) error {
	g := tb.g
	n := len(t.values)
	work := append(tb.work[:0], t.values...) // capacity len(g.work): never regrows
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
	gr := tb.index[string(key)]
	fresh := gr == nil
	if fresh {
		gr = tb.groups.push(group{key: string(key), values: tb.vals.cut(len(g.frame)), counts: tb.counts.cut(len(g.carry))})
		tb.index[gr.key] = gr
		copy(gr.values, keys)
	}
	nk := len(g.specs)
	for j, c := range g.carry {
		seq := t.values[c.src]
		switch {
		case c.countOnly:
			gr.counts[j] += int64(len(seq))
		case fresh:
			// Capped at its length, an adopted sequence is copied by the
			// first append, never appended to in place.
			gr.values[nk+j] = seq[:len(seq):len(seq)]
		default:
			gr.values[nk+j] = append(gr.values[nk+j], seq...)
		}
	}
	return nil
}

// foldPartial folds one partial group, as emitted by a map-side table, into
// the group of key. The first partial of a key is adopted as it is; the
// first fold into it copies it, so the records the exchange holds are
// never written and a recomputed partition reads them unchanged.
func (tb *groupTable) foldPartial(key string, t tuple) {
	g := tb.g
	gr := tb.index[key]
	if gr == nil {
		tb.index[key] = tb.groups.push(group{key: key, values: t.values, shared: true})
		return
	}
	nk := len(g.specs)
	if gr.shared {
		vals := tb.vals.cut(len(g.frame))
		copy(vals, gr.values)
		gr.counts = tb.counts.cut(len(g.carry))
		for j, c := range g.carry {
			if s := vals[nk+j]; c.countOnly {
				gr.counts[j] = int64(s[0].(item.Int))
			} else {
				vals[nk+j] = s[:len(s):len(s)]
			}
		}
		gr.values, gr.shared = vals, false
	}
	for j, c := range g.carry {
		seq := t.values[nk+j]
		if c.countOnly {
			gr.counts[j] += int64(seq[0].(item.Int))
		} else {
			gr.values[nk+j] = append(gr.values[nk+j], seq...)
		}
	}
}

// emit yields every group, in first-seen key order, with its exchange key
// and its tuple under the clause's output frame.
func (tb *groupTable) emit(yield func(key string, t tuple) error) error {
	g := tb.g
	nk := len(g.specs)
	//rumble:ctxpoll-ok emits the groups folded from checkpointing sources, at most one per row; a cancelled sink's yield error aborts it
	for _, chunk := range tb.groups.list {
		for i := range chunk {
			gr := &chunk[i]
			if !gr.shared {
				for j, c := range g.carry {
					if c.countOnly {
						box := tb.boxes.cut(1)
						box[0] = item.Int(gr.counts[j])
						gr.values[nk+j] = box
					}
				}
			}
			if err := yield(gr.key, tuple{names: g.frame, values: gr.values}); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunks is an append-only list whose elements never move: it grows by a
// chunk twice the size of the last and copies nothing, so a pointer to an
// element stays valid.
type chunks[T any] struct {
	list [][]T
}

// push appends v and returns its place.
func (c *chunks[T]) push(v T) *T {
	n := len(c.list)
	if n == 0 || len(c.list[n-1]) == cap(c.list[n-1]) {
		c.list = append(c.list, make([]T, 0, 4<<min(n, 16)))
		n++
	}
	last := &c.list[n-1]
	*last = append(*last, v)
	return &(*last)[len(*last)-1]
}

// slab cuts runs of T out of blocks that never move: a spent block stays
// with the runs cut from it, and a new one twice as large takes over.
type slab[T any] struct {
	free  []T
	block int
}

// cut returns n zero elements, capped at n so that appending to them
// cannot reach the next run.
func (s *slab[T]) cut(n int) []T {
	if len(s.free) < n {
		s.block = max(2*s.block, 4*n)
		s.free = make([]T, s.block)
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	return r
}
