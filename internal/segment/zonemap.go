package segment

import (
	"math"

	"rumble/internal/item"
	"rumble/internal/vector"
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
// value (vector.Lookup semantics: non-object rows and missing keys yield
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

// zoneOfLaneCol recomputes the zone map of one decoded lane straight from
// its tags, typed lanes and dictionary codes; lane values follow lookup
// semantics exactly like the zone maps Encode folds at ingest, so a clean
// decode reproduces the manifest entry bit for bit.
func zoneOfLaneCol(c *vector.Col) ZoneMap {
	var z ZoneMap
	var lo, hi item.SortKey
	for i, tag := range c.Tags {
		kind := laneKinds[tag]
		switch tag {
		case vector.TagAbsent:
			continue
		case vector.TagNull:
			z.Nulls++
		case vector.TagItem:
			if _, isDec := c.Items[i].(item.Dec); isDec {
				kind = KindDec
			}
		}
		z.Present++
		z.Kinds |= kind
		if kind == KindItem {
			continue // non-atomic: no sort key, min/max unchanged
		}
		sk, err := c.SortKey(i)
		if err != nil {
			z.Kinds |= KindItem
			continue
		}
		if !z.HasRange {
			z.HasRange = true
			lo, hi = sk, sk
			continue
		}
		if sk.Compare(lo) < 0 {
			lo = sk
		}
		if sk.Compare(hi) > 0 {
			hi = sk
		}
	}
	if z.HasRange {
		z.Min, z.Max = keyOf(lo), keyOf(hi)
	}
	return z
}

// laneKinds maps a lane tag to its zone-map kind bit (TagItem rows holding a
// decimal are KindDec instead).
var laneKinds = [...]uint32{
	vector.TagNull:   KindNull,
	vector.TagFalse:  KindFalse,
	vector.TagTrue:   KindTrue,
	vector.TagInt:    KindInt,
	vector.TagDouble: KindDouble,
	vector.TagString: KindString,
	vector.TagItem:   KindItem,
}

// ColZone pairs a column name with its zone map. The manifest stores the
// list sorted by name, keeping the JSON deterministic.
type ColZone struct {
	Name string  `json:"name"`
	Zone ZoneMap `json:"zone"`
}

// zoneEqual compares two zone maps for the consistency check.
func zoneEqual(a, b ZoneMap) bool {
	return a.Present == b.Present && a.Nulls == b.Nulls && a.Kinds == b.Kinds &&
		a.HasRange == b.HasRange && keyEqual(a.Min, b.Min) && keyEqual(a.Max, b.Max)
}

func keyEqual(a, b Key) bool {
	return a.Tag == b.Tag && string(a.Str) == string(b.Str) && a.Num == b.Num && a.Int == b.Int
}
