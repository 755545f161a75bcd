package orderby

import "rumble/internal/item"

// Bounded keeps the first k rows of the stable sort of every row offered,
// equal keys in offer order: the bounded sort of "order by … count $c
// where $c le k", Spark's takeOrdered. Every backend keys every row and
// offers it, so a key error or a string/number mix on any row still fails
// the query; only the rows past k are never kept.
//
// The kept rows form a heap on (keys, offer sequence) with the row ranked
// last at the root, so an offer costs O(log k) comparisons, and one
// comparison against the root once k rows are kept and the row ranks after
// them. Storage grows with the rows kept, never by k, so a bound far larger
// than the stream costs what the stream does.
type Bounded[E any] struct {
	k      int64
	desc   []bool
	heap   []ranked[E]
	seq    int64
	free   []item.SortKey // key storage carved for rows still to be kept
	sorted bool
	cmp    func(desc []bool, a, b []item.SortKey) int // Compare; tests count calls
}

// ranked is one kept row: a copy of its keys and its offer sequence.
type ranked[E any] struct {
	keys []item.SortKey
	seq  int64
	row  E
}

// NewBounded returns an empty bounded sort keeping k rows (none when k is
// not positive), ordered by keys that sort descending where desc holds.
func NewBounded[E any](k int64, desc []bool) *Bounded[E] {
	return &Bounded[E]{k: max(k, 0), desc: desc, cmp: Compare}
}

// after reports whether x ranks after y: greater keys, or equal keys and
// offered later.
func (b *Bounded[E]) after(x, y *ranked[E]) bool {
	if c := b.cmp(b.desc, x.keys, y.keys); c != 0 {
		return c > 0
	}
	return x.seq > y.seq
}

// Offer ranks the next row by keys, which it only reads: a kept row's keys
// are copied, into the storage of the row it evicts when there is one, so
// callers may key every row into one buffer. It returns nil when the row
// ranks outside the first k, else the slot to store the row in, valid until
// the next Offer. Offer must not follow Sorted, until a Reset.
func (b *Bounded[E]) Offer(keys []item.SortKey) *E {
	seq := b.seq
	b.seq++
	if n := len(b.heap); int64(n) < b.k {
		var kept []item.SortKey
		if n < cap(b.heap) && len(b.heap[:n+1][n].keys) == len(keys) {
			// A row kept before the last Reset left its key storage here.
			kept = b.heap[:n+1][n].keys
			copy(kept, keys)
		} else {
			kept = b.carve(keys)
		}
		b.heap = append(b.heap, ranked[E]{keys: kept, seq: seq})
		return &b.heap[b.up(n)].row
	}
	// A row equal to the last kept one was offered after it, so it ranks
	// after it too.
	if len(b.heap) == 0 || b.cmp(b.desc, keys, b.heap[0].keys) >= 0 {
		return nil
	}
	root := &b.heap[0]
	copy(root.keys, keys)
	root.seq = seq
	var zero E
	root.row = zero
	return &b.heap[b.down(0, len(b.heap))].row
}

// Len returns the number of rows kept.
func (b *Bounded[E]) Len() int { return len(b.heap) }

// Reset empties b for a new stream, keeping its storage: once b has held
// n rows, its next n kept rows allocate nothing.
func (b *Bounded[E]) Reset() {
	var zero E
	for i := range b.heap {
		b.heap[i].row = zero
	}
	b.heap, b.seq, b.sorted = b.heap[:0], 0, false
}

// carve copies keys into storage that grows with the rows kept.
func (b *Bounded[E]) carve(keys []item.SortKey) []item.SortKey {
	n := len(keys)
	if len(b.free) < n {
		rows := min(int64(max(len(b.heap), 8)), b.k-int64(len(b.heap)))
		b.free = make([]item.SortKey, int(rows)*n)
	}
	s := b.free[:n:n]
	b.free = b.free[n:]
	copy(s, keys)
	return s
}

// up moves the row at i towards the root while it ranks after its parent
// and returns where it settled.
func (b *Bounded[E]) up(i int) int {
	r := b.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !b.after(&r, &b.heap[p]) {
			break
		}
		b.heap[i] = b.heap[p]
		i = p
	}
	b.heap[i] = r
	return i
}

// down moves the row at i away from the root of heap[:n] while a child
// ranks after it and returns where it settled.
func (b *Bounded[E]) down(i, n int) int {
	r := b.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if d := c + 1; d < n && b.after(&b.heap[d], &b.heap[c]) {
			c = d
		}
		if !b.after(&b.heap[c], &r) {
			break
		}
		b.heap[i] = b.heap[c]
		i = c
	}
	b.heap[i] = r
	return i
}

// Sorted yields the kept rows first to last, each with its keys. The first
// call sorts the rows in place (a heapsort: the root, ranked last, moves
// to the end), so Offer must not follow it; later calls yield again.
func (b *Bounded[E]) Sorted(yield func(keys []item.SortKey, row E) error) error {
	if !b.sorted {
		for n := len(b.heap) - 1; n > 0; n-- {
			b.heap[0], b.heap[n] = b.heap[n], b.heap[0]
			b.down(0, n)
		}
		b.sorted = true
	}
	//rumble:ctxpoll-ok emits at most k rows the caller keyed from checkpointing sources; a cancelled sink's yield error aborts it
	for i := range b.heap {
		if err := yield(b.heap[i].keys, b.heap[i].row); err != nil {
			return err
		}
	}
	return nil
}
