package segment

import (
	"math"

	"rumble/internal/item"
)

// Column kind bits of a zone map: which value kinds the column's present
// rows hold. The pruning rules consult them to decide when a predicate
// can neither error nor select a row anywhere in the segment.
const (
	KindNull uint32 = 1 << iota
	KindFalse
	KindTrue
	KindInt
	KindDouble
	KindDec
	KindString
	KindItem // nested object or array (no sort key)
)

// Key is the JSON-stable rendering of an item.SortKey: the float64 column
// is stored as its IEEE bits and the string column as bytes (base64 in
// JSON), so NaN, -0.0 and non-UTF-8 survive the manifest round trip.
type Key struct {
	Tag int    `json:"t"`
	Str []byte `json:"s,omitempty"`
	Num uint64 `json:"n"`
	Int int64  `json:"i"`
}

// SortKey converts back to the comparable form.
func (k Key) SortKey() item.SortKey {
	return item.SortKey{Tag: k.Tag, Str: string(k.Str), Num: math.Float64frombits(k.Num), Int: k.Int}
}

func keyOf(sk item.SortKey) Key {
	var s []byte
	if sk.Str != "" {
		s = []byte(sk.Str)
	}
	return Key{Tag: sk.Tag, Str: s, Num: math.Float64bits(sk.Num), Int: sk.Int}
}

// ZoneMap summarizes one column of one segment: how many rows yield a
// value (vector's Lookup semantics: non-object rows and missing keys yield
// absent), how many of those are null, the set of value kinds, and the
// min/max sort key over the keyable (atomic) values. Missing rows are
// Rows - Present at the segment level.
type ZoneMap struct {
	Present int    `json:"present"`
	Nulls   int    `json:"nulls"`
	Kinds   uint32 `json:"kinds"`
	// HasRange reports whether Min/Max are valid: at least one present
	// value was atomic and therefore sort-keyable.
	HasRange bool `json:"has_range,omitempty"`
	Min      Key  `json:"min"`
	Max      Key  `json:"max"`
}

// ColZone pairs a column name with its zone map. The manifest stores the
// list sorted by name, keeping the JSON deterministic.
type ColZone struct {
	Name string  `json:"name"`
	Zone ZoneMap `json:"zone"`
}
