package segment

import (
	"rumble/internal/item"
	"rumble/internal/vector"
)

// The zone-map oracle: what a decoded lane's zone map must be. The round-trip
// tests and FuzzEncodeMatchesOracle check the manifest entries Encode folds
// against it.

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

// zoneEqual compares two zone maps.
func zoneEqual(a, b ZoneMap) bool {
	return a.Present == b.Present && a.Nulls == b.Nulls && a.Kinds == b.Kinds &&
		a.HasRange == b.HasRange && keyEqual(a.Min, b.Min) && keyEqual(a.Max, b.Max)
}

func keyEqual(a, b Key) bool {
	return a.Tag == b.Tag && string(a.Str) == string(b.Str) && a.Num == b.Num && a.Int == b.Int
}
