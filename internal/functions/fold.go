package functions

import "rumble/internal/item"

// AggKind names an aggregate that folds through a Fold.
type AggKind uint8

// The aggregate folds.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// aggregateKinds is the one table of aggregate builtins that fold through
// an accumulator. The compiler's pushdown and vector rules, the cluster
// pushdown and the vector backend all derive their aggregate names from it.
var aggregateKinds = map[string]AggKind{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

// AggregateKind returns the fold kind of an aggregate builtin; ok is false
// for any other name.
func AggregateKind(name string) (kind AggKind, ok bool) {
	kind, ok = aggregateKinds[name]
	return kind, ok
}

// Fold is one running aggregate, the single definition of count, sum, avg,
// min and max: the local builtins fold a materialized sequence through it,
// cluster pushdown folds each partition and merges the partials in
// partition order, and the vector backend keeps one per group and
// aggregate. n counts the values folded. Sums run in a fast int64 lane
// while every value is an integer and the running sum fits, then spill into
// cur through item.Arithmetic, which promotes an int64 overflow to decimal
// exactly as the left-to-right fold does. For min/max cur is the current
// extremum. The zero Fold of a kind is empty; a failed Add or Merge leaves
// the fold as it was before the value.
type Fold struct {
	Kind    AggKind
	fastInt bool
	n       int64
	intSum  int64
	cur     item.Item
}

// Add folds one item.
func (f *Fold) Add(it item.Item) error {
	switch f.Kind {
	case AggCount:
	case AggSum, AggAvg:
		if v, ok := it.(item.Int); ok {
			return f.AddInt(int64(v))
		}
		if !item.IsNumeric(it) {
			return errf("sum: non-numeric item of type %s", it.Kind())
		}
		if f.n == 0 {
			f.cur = it
		} else if err := f.addItem(it); err != nil {
			return err
		}
	default:
		if f.n == 0 {
			f.cur = it
		} else if err := f.extremum(it); err != nil {
			return err
		}
	}
	f.n++
	return nil
}

// AddInt folds one integer without boxing it: the vector kernel's entry
// for integer rows.
func (f *Fold) AddInt(v int64) error {
	switch {
	case f.Kind == AggMin || f.Kind == AggMax:
		return f.Add(item.Int(v))
	case f.Kind == AggCount:
	case f.n == 0:
		f.intSum, f.fastInt = v, true
	default:
		if err := f.addInt(v); err != nil {
			return err
		}
	}
	f.n++
	return nil
}

// Merge folds later, the partial of the values after f's, into f: counts
// add, sums combine through the int lane or item.Arithmetic, and min/max
// keep f's extremum on ties. Merging partials in order therefore equals one
// left-to-right fold, up to the rounding of double sums.
func (f *Fold) Merge(later *Fold) error {
	switch {
	case later.n == 0:
		return nil
	case f.n == 0:
		*f = *later
		return nil
	}
	var err error
	switch f.Kind {
	case AggCount:
	case AggSum, AggAvg:
		if later.fastInt {
			err = f.addInt(later.intSum)
		} else {
			err = f.addItem(later.cur)
		}
	default:
		err = f.extremum(later.cur)
	}
	if err != nil {
		return err
	}
	f.n += later.n
	return nil
}

// N returns the number of values folded.
func (f *Fold) N() int64 { return f.n }

// Result finalizes the fold. count is always present and sum over no
// values is integer 0; avg, min and max over no values are the empty
// sequence (nil).
func (f *Fold) Result() (item.Item, error) {
	switch {
	case f.Kind == AggCount:
		return item.Int(f.n), nil
	case f.n == 0 && f.Kind == AggSum:
		return item.Int(0), nil
	case f.n == 0:
		return nil, nil
	case f.Kind == AggAvg:
		return item.Arithmetic(item.OpDiv, f.sum(), item.Int(f.n))
	case f.Kind == AggSum:
		return f.sum(), nil
	default:
		return f.cur, nil
	}
}

// sum returns the running sum, materializing the int lane.
func (f *Fold) sum() item.Item {
	if f.fastInt {
		return item.Int(f.intSum)
	}
	return f.cur
}

// addInt adds v to a non-empty running sum, in the int lane while it fits.
func (f *Fold) addInt(v int64) error {
	if f.fastInt {
		if r := f.intSum + v; !(v > 0 && r < f.intSum) && !(v < 0 && r > f.intSum) {
			f.intSum = r
			return nil
		}
	}
	return f.addItem(item.Int(v))
}

// addItem adds a numeric item to a non-empty running sum.
func (f *Fold) addItem(it item.Item) error {
	s, err := item.Arithmetic(item.OpAdd, f.sum(), it)
	if err != nil {
		return err
	}
	f.cur, f.fastInt = s, false
	return nil
}

// extremum folds a candidate into a non-empty min/max, keeping the current
// extremum on ties.
func (f *Fold) extremum(it item.Item) error {
	c, err := item.CompareValues(it, f.cur)
	if err != nil {
		return errf("min/max: %v", err)
	}
	if (f.Kind == AggMin && c < 0) || (f.Kind == AggMax && c > 0) {
		f.cur = it
	}
	return nil
}

// foldAll folds a materialized sequence: the sum, avg, min and max
// builtins.
func foldAll(kind AggKind, seq []item.Item) ([]item.Item, error) {
	f := Fold{Kind: kind}
	for _, it := range seq {
		if err := f.Add(it); err != nil {
			return nil, err
		}
	}
	res, err := f.Result()
	if err != nil || res == nil {
		return nil, err
	}
	return singleton(res), nil
}
