// Package orderby holds the order-by rules every backend shares (§4.8):
// which sequence may key a tuple, how key tuples compare, the
// string/number mix rule, and the stable sort and k-way merge of sorted
// runs. The tuple clause, the DataFrame step with spark.SortBy and the
// vector sort all call it, so a query orders, and fails, alike on each.
package orderby

import (
	"fmt"
	"sort"

	"rumble/internal/item"
)

// Key encodes the sequence one tuple's ordering expression returned: the
// empty sequence sorts least (or greatest under "empty greatest") and a
// single atomic item by its value. More items, or a non-atomic item, fail
// the query.
func Key(seq []item.Item, emptyGreatest bool) (item.SortKey, error) {
	if len(seq) > 1 {
		return item.SortKey{}, fmt.Errorf("order by: key binds a sequence of %d items", len(seq))
	}
	if len(seq) == 1 && !item.IsAtomic(seq[0]) {
		return item.SortKey{}, fmt.Errorf("order by: key is a non-atomic %s item", seq[0].Kind())
	}
	sk, err := item.EncodeSortKey(seq, emptyGreatest)
	if err != nil {
		return item.SortKey{}, fmt.Errorf("order by: %v", err)
	}
	return sk, nil
}

// Compare orders two key tuples: per key a three-way SortKey comparison,
// reversed where desc holds, the first unequal key deciding.
func Compare(desc []bool, a, b []item.SortKey) int {
	for i, d := range desc {
		c := a[i].Compare(b[i])
		if c == 0 {
			continue
		}
		if d {
			return -c
		}
		return c
	}
	return 0
}

// Mix records, one byte per ordering key, whether the key was a string
// (bit 0) or a number (bit 1) on some tuple. JSONiq orders no string
// against a number, so a stream in which a key is both has no order.
type Mix []uint8

// Note records the kinds of one tuple's keys.
func (m Mix) Note(keys []item.SortKey) {
	for i, sk := range keys {
		switch sk.Tag {
		case item.TagString:
			m[i] |= 1
		case item.TagNumber:
			m[i] |= 2
		}
	}
}

// Add records what o recorded of another part of the same stream.
func (m Mix) Add(o Mix) {
	for i, b := range o {
		m[i] |= b
	}
}

// Err rejects the stream when some key mixed strings and numbers. Callers
// ask only after every tuple is keyed, so a key error wins over a mix.
func (m Mix) Err() error {
	for i, b := range m {
		if b == 3 {
			return fmt.Errorf("order by: key %d mixes strings and numbers across the tuple stream", i+1)
		}
	}
	return nil
}

// Stable sorts s in place by less, keeping equal elements in order.
func Stable[E any](s []E, less func(a, b E) bool) {
	sort.Stable(sorter[E]{s, less})
}

type sorter[E any] struct {
	s    []E
	less func(a, b E) bool
}

func (x sorter[E]) Len() int           { return len(x.s) }
func (x sorter[E]) Less(i, j int) bool { return x.less(x.s[i], x.s[j]) }
func (x sorter[E]) Swap(i, j int)      { x.s[i], x.s[j] = x.s[j], x.s[i] }

// Merge yields the elements of the sorted runs in order: a k-way merge
// over a heap keyed on (head, run index), so of equal heads the lower run's
// goes first, and merging the stable sorts of consecutive pieces of a
// stream gives the stable sort of the whole. It consumes runs.
func Merge[E any](runs [][]E, less func(a, b E) bool, yield func(E) error) error {
	h := make([]int, 0, len(runs))
	for i, run := range runs {
		if len(run) > 0 {
			h = append(h, i)
		}
	}
	before := func(a, b int) bool {
		x, y := runs[a][0], runs[b][0]
		if less(x, y) {
			return true
		}
		return !less(y, x) && a < b
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= len(h) {
				return
			}
			if r := m + 1; r < len(h) && before(h[r], h[m]) {
				m = r
			}
			if !before(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	//rumble:ctxpoll-ok emits runs the caller materialized through checkpointing sources; a cancelled sink's yield error aborts it
	for len(h) > 1 {
		top := h[0]
		if err := yield(runs[top][0]); err != nil {
			return err
		}
		if runs[top] = runs[top][1:]; len(runs[top]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if len(h) == 1 {
		//rumble:ctxpoll-ok the rest of one materialized run, as above
		for _, v := range runs[h[0]] {
			if err := yield(v); err != nil {
				return err
			}
		}
	}
	return nil
}
