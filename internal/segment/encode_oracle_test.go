package segment

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sort"

	"rumble/internal/item"
)

// The write-side oracle: the serial encoder and the separate zone-map walk
// the single-pass Encode replaced, kept word for word. TestIngestMatchesOracle
// and FuzzEncodeMatchesOracle hold Encode — and the ingest pipeline around
// it, at every worker count and chunk size — to these bytes.

// oracleEncode serializes rows into one segment's byte image. Rows must not
// be longer than the segment capacity.
func oracleEncode(rows []item.Item) ([]byte, error) {
	if len(rows) > Rows {
		return nil, errf("", "encode: %d rows exceed segment capacity %d", len(rows), Rows)
	}
	// Column dictionary in first-seen order, so reconstruction preserves
	// the original key order of every object row.
	var cols []string
	colID := map[string]int{}
	type rowShape struct {
		overflow []byte // exact item encoding when not a plain object
		ids      []int
	}
	shapes := make([]rowShape, len(rows))
	// Rows decoded by one decoder share item.Shapes, so the two questions
	// that depend only on a row's key sequence — does it repeat a key, and
	// which column ids does it map to — are answered once per shape.
	type shapeInfo struct {
		dup bool
		ids []int
	}
	known := map[*item.Shape]*shapeInfo{}
	// The per-segment string dictionary: every top-level string a column
	// lane (or an overflow object row's field, which the projecting decoder
	// serves through the same code space) can hold, sorted so comparison
	// kernels can rank a literal against it by binary search.
	strSet := map[string]struct{}{}
	for ri, r := range rows {
		o, ok := r.(*item.Object)
		var info *shapeInfo
		if ok {
			if info = known[o.Shape()]; info == nil {
				info = &shapeInfo{dup: o.Shape().HasDupKeys()}
				known[o.Shape()] = info
			}
		}
		if !ok || info.dup {
			shapes[ri].overflow = appendValue(nil, r)
			if ok {
				// A dup-key object row still answers field lookups; its
				// string fields must resolve through the dictionary too.
				for i := 0; i < o.Len(); i++ {
					if s, isStr := o.ValueAt(i).(item.Str); isStr {
						strSet[string(s)] = struct{}{}
					}
				}
			}
			continue
		}
		if info.ids == nil {
			info.ids = make([]int, o.Len())
			for ki, k := range o.Keys() {
				id, seen := colID[k]
				if !seen {
					id = len(cols)
					colID[k] = id
					cols = append(cols, k)
				}
				info.ids[ki] = id
			}
		}
		for ki := 0; ki < o.Len(); ki++ {
			if s, isStr := o.ValueAt(ki).(item.Str); isStr {
				strSet[string(s)] = struct{}{}
			}
		}
		shapes[ri].ids = info.ids
	}
	table := make([]string, 0, len(strSet))
	for s := range strSet {
		table = append(table, s)
	}
	sort.Strings(table)
	strCode := make(map[string]uint64, len(table))
	for i, s := range table {
		strCode[s] = uint64(i)
	}

	var payload []byte
	payload = appendUvarint(payload, uint64(len(cols)))
	for _, c := range cols {
		payload = appendString(payload, c)
	}
	payload = appendUvarint(payload, uint64(len(table)))
	for _, s := range table {
		payload = appendString(payload, s)
	}
	for ri := range shapes {
		if shapes[ri].overflow != nil {
			payload = appendUvarint(payload, shapeOverflow)
			payload = appendUvarint(payload, uint64(len(shapes[ri].overflow)))
			payload = append(payload, shapes[ri].overflow...)
			continue
		}
		payload = appendUvarint(payload, uint64(len(shapes[ri].ids)+1))
		for _, id := range shapes[ri].ids {
			payload = appendUvarint(payload, uint64(id))
		}
	}
	// Typed lanes, one column at a time: each column's block is its dense
	// tag lane followed by the sparse value lane in row order, prefixed by
	// the block's byte length so a projecting reader skips a whole column
	// without parsing it.
	for ci := range cols {
		tags := make([]byte, len(rows))
		var values []byte
		for ri, r := range rows {
			o, ok := r.(*item.Object)
			if !ok || shapes[ri].overflow != nil {
				// Overflow rows reconstruct wholesale; non-objects yield
				// absent for every column, exactly like vector's Lookup.
				continue
			}
			v, present := o.Get(cols[ci])
			if !present {
				continue
			}
			tag, val := oracleLaneValue(v, strCode)
			tags[ri] = tag
			values = append(values, val...)
		}
		payload = appendUvarint(payload, uint64(len(tags)+len(values)))
		payload = append(payload, tags...)
		payload = append(payload, values...)
	}

	out := make([]byte, 0, len(Magic)+1+4+4+4+len(payload))
	out = append(out, Magic...)
	out = append(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cols)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return out, nil
}

// oracleLaneValue encodes one column value into its lane tag and value
// bytes (empty for tags whose value lives in the tag itself). Strings
// encode as codes into the segment's sorted dictionary.
func oracleLaneValue(v item.Item, strCode map[string]uint64) (byte, []byte) {
	switch t := v.(type) {
	case item.Null:
		return tagNull, nil
	case item.Bool:
		if bool(t) {
			return tagTrue, nil
		}
		return tagFalse, nil
	case item.Int:
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], int64(t))
		return tagInt, buf[:n]
	case item.Double:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(t)))
		return tagDouble, buf[:]
	case item.Str:
		return tagString, appendUvarint(nil, strCode[string(t)])
	case item.Dec:
		return tagDec, appendString(nil, t.Rat().RatString())
	default:
		return tagItem, appendSized(nil, appendValue(nil, v))
	}
}

// oracleObserve folds one column value into the zone map.
func oracleObserve(z *ZoneMap, v item.Item) {
	z.Present++
	switch t := v.(type) {
	case item.Null:
		z.Kinds |= KindNull
		z.Nulls++
	case item.Bool:
		if bool(t) {
			z.Kinds |= KindTrue
		} else {
			z.Kinds |= KindFalse
		}
	case item.Int:
		z.Kinds |= KindInt
	case item.Double:
		z.Kinds |= KindDouble
	case item.Dec:
		z.Kinds |= KindDec
	case item.Str:
		z.Kinds |= KindString
	default:
		z.Kinds |= KindItem
		return // non-atomic: no sort key, min/max unchanged
	}
	sk, err := item.EncodeSortKey([]item.Item{v}, false)
	if err != nil {
		z.Kinds |= KindItem
		return
	}
	if !z.HasRange {
		z.HasRange = true
		z.Min, z.Max = keyOf(sk), keyOf(sk)
		return
	}
	if sk.Compare(z.Min.SortKey()) < 0 {
		z.Min = keyOf(sk)
	}
	if sk.Compare(z.Max.SortKey()) > 0 {
		z.Max = keyOf(sk)
	}
}

// oracleZoneMaps computes the per-column zone maps of a segment's rows in a
// second walk over them.
func oracleZoneMaps(rows []item.Item) []ColZone {
	var order []string
	maps := map[string]*ZoneMap{}
	for _, r := range rows {
		o, ok := r.(*item.Object)
		if !ok {
			continue
		}
		// Per-column observation follows lookup semantics: duplicate keys
		// observe the first (winning) value only, once.
		seen := map[string]bool{}
		for _, k := range o.Keys() {
			if seen[k] {
				continue
			}
			seen[k] = true
			z := maps[k]
			if z == nil {
				z = &ZoneMap{}
				maps[k] = z
				order = append(order, k)
			}
			v, _ := o.Get(k)
			oracleObserve(z, v)
		}
	}
	sort.Strings(order)
	out := make([]ColZone, len(order))
	for i, k := range order {
		out[i] = ColZone{Name: k, Zone: *maps[k]}
	}
	return out
}
