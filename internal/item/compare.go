package item

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
)

// ErrNonComparable is wrapped by comparison errors for incompatible types.
var ErrNonComparable = fmt.Errorf("items are not comparable")

// CompareValues compares two atomic items under JSONiq value-comparison
// semantics and returns -1, 0 or +1. Numeric kinds compare numerically
// across integer/decimal/double. null compares equal to null and lower than
// any other atomic. Comparing a string with a number, a boolean with a
// string, or any non-atomic item is an error.
func CompareValues(a, b Item) (int, error) {
	ka, kb := a.Kind(), b.Kind()
	if ka == KindArray || ka == KindObject || kb == KindArray || kb == KindObject {
		return 0, fmt.Errorf("%w: %s vs %s", ErrNonComparable, ka, kb)
	}
	if ka == KindNull || kb == KindNull {
		switch {
		case ka == KindNull && kb == KindNull:
			return 0, nil
		case ka == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if IsNumeric(a) && IsNumeric(b) {
		return compareNumeric(a, b), nil
	}
	if ka == KindString && kb == KindString {
		sa, sb := string(a.(Str)), string(b.(Str))
		switch {
		case sa < sb:
			return -1, nil
		case sa > sb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if ka == KindBoolean && kb == KindBoolean {
		ba, bb := bool(a.(Bool)), bool(b.(Bool))
		switch {
		case ba == bb:
			return 0, nil
		case !ba:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("%w: %s vs %s", ErrNonComparable, ka, kb)
}

func compareNumeric(a, b Item) int {
	// Promote to the widest representation present. Pairs without a double
	// compare exactly through big.Rat. A finite double also compares
	// exactly against an integer or decimal (SetFloat64 is lossless), so
	// Int(2^53) and Int(2^53+1) stay distinguishable from Double(2^53);
	// only double-double pairs and non-finite doubles use float ordering.
	if a.Kind() == KindDouble || b.Kind() == KindDouble {
		fa, fb := Float64Value(a), Float64Value(b)
		bothDouble := a.Kind() == KindDouble && b.Kind() == KindDouble
		finite := !math.IsNaN(fa) && !math.IsInf(fa, 0) &&
			!math.IsNaN(fb) && !math.IsInf(fb, 0)
		if !bothDouble && finite {
			return ratValue(a).Cmp(ratValue(b))
		}
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	if a.Kind() == KindDecimal || b.Kind() == KindDecimal {
		return ratValue(a).Cmp(ratValue(b))
	}
	ia, ib := int64(a.(Int)), int64(b.(Int))
	switch {
	case ia < ib:
		return -1
	case ia > ib:
		return 1
	default:
		return 0
	}
}

// DeepEqual reports structural equality of two items, as used by
// deep-equal() and by group-by key equivalence on nested values. Unlike
// CompareValues it never errors: items of different kinds are unequal
// (except cross-numeric comparisons, which compare numerically).
func DeepEqual(a, b Item) bool {
	if IsNumeric(a) && IsNumeric(b) {
		return compareNumeric(a, b) == 0
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindNull:
		return true
	case KindBoolean:
		return a.(Bool) == b.(Bool)
	case KindString:
		return a.(Str) == b.(Str)
	case KindArray:
		aa, ab := a.(*Array), b.(*Array)
		if aa.Len() != ab.Len() {
			return false
		}
		for i := 0; i < aa.Len(); i++ {
			if !DeepEqual(aa.Member(i), ab.Member(i)) {
				return false
			}
		}
		return true
	case KindObject:
		oa, ob := a.(*Object), b.(*Object)
		if oa.Len() != ob.Len() {
			return false
		}
		for i, k := range oa.Keys() {
			v, ok := ob.Get(k)
			if !ok || !DeepEqual(oa.ValueAt(i), v) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Float64Value returns the numeric value of a numeric item as float64.
// It panics on non-numeric items; callers must check IsNumeric first.
func Float64Value(it Item) float64 {
	switch v := it.(type) {
	case Int:
		return float64(v)
	case Double:
		return float64(v)
	case Dec:
		return v.Float64()
	default:
		panic(fmt.Sprintf("item: Float64Value on %s item", it.Kind()))
	}
}

func ratValue(it Item) *big.Rat {
	switch v := it.(type) {
	case Int:
		return new(big.Rat).SetInt64(int64(v))
	case Dec:
		return v.Rat()
	case Double:
		r := new(big.Rat)
		r.SetFloat64(float64(v))
		return r
	default:
		panic(fmt.Sprintf("item: ratValue on %s item", it.Kind()))
	}
}

// Type tags used by the typed group/sort key encoding of §4.7 of the
// paper: an integer column carrying the tag, a string column, a double
// column and an exact-integer column carrying the value when applicable.
// false sorts before true, agreeing with CompareValues.
const (
	TagEmptyLeast    = 1 // empty sequence, ordered lowest (default)
	TagNull          = 2
	TagFalse         = 3
	TagTrue          = 4
	TagString        = 5
	TagNumber        = 6
	TagEmptyGreatest = 7 // empty sequence when "empty greatest" is in force
)

// NaNStr is the string-column sentinel EncodeSortKey gives NaN keys. Real
// numbers encode an empty string column, so the lexicographic (Tag, Str,
// Num, Int) comparison deterministically orders NaN greatest among numbers
// (and equal to itself) without ever comparing a raw NaN double.
const NaNStr = "NaN"

// SortKey is the typed encoding of one grouping/ordering variable, matching
// the native DataFrame columns the paper creates (type tag, string value,
// double value) plus an exact-integer column that keeps integers outside
// the float64-exact range (|v| > 2^53) distinguishable. Rows group and
// order correctly by comparing (Tag, Str, Num, Int) lexicographically.
type SortKey struct {
	Tag int
	Str string
	Num float64
	// Int is the exact integer value when the key is an integral number
	// representable in int64 (it then equals the key's mathematical value,
	// breaking float64 ties such as 2^53 vs 2^53+1), and 0 otherwise.
	Int int64
}

// exactInt returns the int64 tie-breaker for a numeric key whose double
// column is f: the exact integer value when f is integral and inside the
// int64 range, else 0. Every value collapsing to the same float64 bucket
// gets its true integer here, so the (Num, Int) pair orders exactly.
func exactInt(f float64) int64 {
	if f == math.Trunc(f) && f >= -9.223372036854775808e18 && f < 9.223372036854775808e18 {
		return int64(f)
	}
	return 0
}

// EncodeSortKey encodes the sequence bound to a grouping/ordering variable.
// The sequence must be empty or hold a single atomic item; group-by
// tolerates any atomic (heterogeneous keys are legal), which is why the
// encoding is total over atomics.
func EncodeSortKey(seq []Item, emptyGreatest bool) (SortKey, error) {
	if len(seq) == 0 {
		if emptyGreatest {
			return SortKey{Tag: TagEmptyGreatest}, nil
		}
		return SortKey{Tag: TagEmptyLeast}, nil
	}
	if len(seq) > 1 {
		return SortKey{}, fmt.Errorf("key binds a sequence of %d items; a single atomic is required", len(seq))
	}
	it := seq[0]
	switch it.Kind() {
	case KindNull:
		return SortKey{Tag: TagNull}, nil
	case KindBoolean:
		if bool(it.(Bool)) {
			return SortKey{Tag: TagTrue}, nil
		}
		return SortKey{Tag: TagFalse}, nil
	case KindString:
		return SortKey{Tag: TagString, Str: string(it.(Str))}, nil
	case KindInteger:
		return IntKey(int64(it.(Int))), nil
	case KindDecimal:
		r := it.(Dec).Rat()
		num := canonFloat(it.(Dec).Float64())
		if r.IsInt() && r.Num().IsInt64() {
			return SortKey{Tag: TagNumber, Num: num, Int: r.Num().Int64()}, nil
		}
		// Non-integral (or beyond-int64) decimals leave Int at 0: even when
		// their float64 image lands in an integral bucket (|v| >= 2^52),
		// they must not falsely equal an exact integer carried in the Int
		// column. Their sub-ulp ordering collapses like the seed's float64
		// encoding — a narrower corner than a wrong join match.
		return SortKey{Tag: TagNumber, Num: num}, nil
	case KindDouble:
		return NumberKey(float64(it.(Double))), nil
	default:
		return SortKey{}, fmt.Errorf("key binds a non-atomic %s item", it.Kind())
	}
}

// NumberKey encodes a double value as a sort key, the shared number-column
// encoding: NaN carries the NaNStr sentinel (greatest among numbers), -0.0
// canonicalizes to +0.0, and integral values in range carry their exact
// int64 in the Int column. EncodeSortKey and the vector backend's typed
// columns both build their number keys through it.
func NumberKey(f float64) SortKey {
	if math.IsNaN(f) {
		return SortKey{Tag: TagNumber, Str: NaNStr, Num: math.Inf(1)}
	}
	f = canonFloat(f)
	return SortKey{Tag: TagNumber, Num: f, Int: exactInt(f)}
}

// IntKey encodes an int64 value as a sort key, matching EncodeSortKey's
// integer-item encoding exactly.
func IntKey(v int64) SortKey {
	return SortKey{Tag: TagNumber, Num: float64(v), Int: v}
}

// canonFloat maps -0.0 to +0.0 so equal keys share one encoding.
func canonFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}

// Compare orders two sort keys lexicographically over (Tag, Str, Num, Int).
// The ordering is total: NaN keys carry the NaNStr sentinel in the string
// column (greatest among numbers), and integers beyond the float64-exact
// range break their Num ties on the exact Int column. Raw NaN doubles in
// hand-built keys still order deterministically (greatest).
func (k SortKey) Compare(o SortKey) int {
	if k.Tag != o.Tag {
		if k.Tag < o.Tag {
			return -1
		}
		return 1
	}
	if k.Str != o.Str {
		if k.Str < o.Str {
			return -1
		}
		return 1
	}
	switch {
	case k.Num < o.Num:
		return -1
	case k.Num > o.Num:
		return 1
	}
	if nk, no := math.IsNaN(k.Num), math.IsNaN(o.Num); nk != no {
		if nk {
			return 1
		}
		return -1
	}
	switch {
	case k.Int < o.Int:
		return -1
	case k.Int > o.Int:
		return 1
	default:
		return 0
	}
}

// AppendSortKey appends a canonical byte encoding of the key to dst, for
// use as a hash-join or group-by bucket key: two keys encode to the same
// bytes exactly when Compare orders them equal. The layout is tag byte,
// uvarint string length, string bytes, 8-byte Num bits, 8-byte Int.
func AppendSortKey(dst []byte, k SortKey) []byte {
	dst = append(dst, byte(k.Tag))
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(k.Str)))
	dst = append(dst, lenBuf[:n]...)
	dst = append(dst, k.Str...)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(canonFloat(k.Num)))
	dst = append(dst, b[:]...)
	binary.BigEndian.PutUint64(b[:], uint64(k.Int))
	return append(dst, b[:]...)
}
