package segment

import (
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"

	"rumble/internal/item"
	"rumble/internal/keytab"
)

// Encode serializes rows into one segment's byte image and computes the
// per-column zone maps the manifest records for it, sorted by column name.
// Rows must not be longer than the segment capacity. It is ingest's encoder
// writing into memory instead of a file.
func Encode(rows []item.Item) ([]byte, []ColZone, error) {
	if len(rows) > Rows {
		return nil, nil, errf("", "encode: %d rows exceed segment capacity %d", len(rows), Rows)
	}
	b := newBuilder(rows)
	var img memImage
	_, _, zones, err := b.finish(b.lanes(), &img)
	if err != nil {
		return nil, nil, err
	}
	return img, zones, nil
}

// builder is the write side of one segment, in three steps. newBuilder
// resolves every row to its shape — the column ids of its keys — in row
// order, which fixes the column dictionary. lanes then visits each value of
// the plain rows, appending it to its column's tag and value lanes and
// folding it into the column's zone map; each string value becomes the id of
// its first occurrence in the segment. finish ranks the strings lanes
// collected into the segment dictionary and streams the image, string codes
// patched in, to its writer.
type builder struct {
	rows   []item.Item
	shape  []int32       // per row: index into shapes, -1 for an overflow row
	shapes *keytab.Table // the row-shape bytes of the plain rows' distinct key sequences
	keyIDs [][]int       // per shape: the column id of every key
	cols   []string      // column dictionary, first-seen order
}

func newBuilder(rows []item.Item) *builder {
	b := &builder{rows: rows, shape: make([]int32, len(rows)), shapes: keytab.New(0)}
	// Rows decoded by one decoder share item.Shapes, so a row usually costs
	// one pointer comparison; a shape pointer never seen costs its keys'
	// lookups, and shapes with the same key sequence (one per decoder that
	// met it) fold into one entry by their encoded id list.
	colIDs := keytab.New(0)
	known := map[*item.Shape]int32{}
	var last *item.Shape
	var lastIdx int32
	for ri, r := range rows {
		o, ok := r.(*item.Object)
		if !ok {
			b.shape[ri] = -1
			continue
		}
		if sh := o.Shape(); sh != last {
			idx, seen := known[sh]
			if !seen {
				idx = -1
				if !sh.HasDupKeys() {
					ids := make([]int, len(sh.Keys()))
					enc := appendUvarint(nil, uint64(len(ids)+1))
					for ki, k := range sh.Keys() {
						id, _ := colIDs.ID(k)
						ids[ki] = int(id)
						enc = appendUvarint(enc, uint64(id))
					}
					var fresh bool
					if idx, fresh = b.shapes.IDBytes(enc); fresh {
						b.keyIDs = append(b.keyIDs, ids)
					}
				}
				known[sh] = idx
			}
			last, lastIdx = sh, idx
		}
		b.shape[ri] = lastIdx
	}
	b.cols = colIDs.Keys()
	return b
}

// lane is one column under construction: the dense tag lane, the value
// bytes of its non-string values in row order, the ids of its string values
// in row order (codes exist only once finish has ranked the dictionary),
// and the zone map folded from the same value visits.
type lane struct {
	tags []byte
	vals []byte
	strs []uint32
	zone zoneAcc
}

// laneGroup is the output of lanes: the lane of every column, by column
// id, the distinct strings the lanes hold in first-seen order (a string's
// id is its index), and the ids listed in string order.
type laneGroup struct {
	lanes  []lane
	strs   []string
	sorted []uint32
}

// lanes builds the lanes of every column in two passes over the rows'
// values. The first counts each lane's string values, so every id lane and
// the id table are allocated once, at their final size; the second fills
// the lanes. Overflow rows (non-objects, duplicate-key objects) reconstruct
// wholesale and stay absent in every lane, exactly like vector's Lookup
// over them.
func (b *builder) lanes() *laneGroup {
	lg := &laneGroup{lanes: make([]lane, len(b.cols))}
	tags := make([]byte, len(lg.lanes)*len(b.rows))
	for i := range lg.lanes {
		lg.lanes[i].tags = tags[i*len(b.rows) : (i+1)*len(b.rows) : (i+1)*len(b.rows)]
	}
	counts := make([]int, len(lg.lanes))
	total := 0 // string values in the segment's lanes
	for ri, r := range b.rows {
		si := b.shape[ri]
		if si < 0 {
			continue
		}
		o := r.(*item.Object)
		for ki, id := range b.keyIDs[si] {
			if _, ok := o.ValueAt(ki).(item.Str); ok {
				counts[id]++
				total++
			}
		}
	}
	ids := make([]uint32, total)
	for i, c := range counts {
		lg.lanes[i].strs, ids = ids[:0:c], ids[c:]
	}
	strIDs := keytab.New(total)

	var scratch []byte
	for ri, r := range b.rows {
		si := b.shape[ri]
		if si < 0 {
			continue
		}
		o := r.(*item.Object)
		for ki, id := range b.keyIDs[si] {
			l := &lg.lanes[id]
			l.zone.present++
			switch v := o.ValueAt(ki).(type) {
			case item.Null:
				l.tags[ri] = tagNull
				l.zone.nulls++
				l.zone.kinds |= KindNull
			case item.Bool:
				if v {
					l.tags[ri] = tagTrue
					l.zone.kinds |= KindTrue
				} else {
					l.tags[ri] = tagFalse
					l.zone.kinds |= KindFalse
				}
			case item.Int:
				l.tags[ri] = tagInt
				l.vals = binary.AppendVarint(l.vals, int64(v))
				l.zone.addInt(int64(v))
			case item.Double:
				l.tags[ri] = tagDouble
				l.vals = binary.LittleEndian.AppendUint64(l.vals, math.Float64bits(float64(v)))
				l.zone.kinds |= KindDouble
				l.zone.addNumber(item.NumberKey(float64(v)))
			case item.Str:
				l.tags[ri] = tagString
				id, _ := strIDs.ID(string(v))
				l.strs = append(l.strs, uint32(id))
			case item.Dec:
				l.tags[ri] = tagDec
				l.vals = appendString(l.vals, v.Rat().RatString())
				l.zone.kinds |= KindDec
				l.zone.addNumber(decKey(v))
			default:
				l.tags[ri] = tagItem
				scratch = appendValue(scratch[:0], v)
				l.vals = appendSized(l.vals, scratch)
				l.zone.kinds |= KindItem
			}
		}
	}
	lg.strs = strIDs.Keys()
	lg.sorted = sortedIDs(lg.strs)
	return lg
}

// sortedIDs returns the indexes of strs in string order. Most comparisons
// are decided by the strings' first eight bytes, held beside the index as one
// big-endian word, without touching the strings themselves.
func sortedIDs(strs []string) []uint32 {
	type entry struct {
		prefix uint64
		id     uint32
	}
	entries := make([]entry, len(strs))
	for i, s := range strs {
		var head [8]byte
		copy(head[:], s)
		entries[i] = entry{prefix: binary.BigEndian.Uint64(head[:]), id: uint32(i)}
	}
	slices.SortFunc(entries, func(x, y entry) int {
		if x.prefix != y.prefix {
			return cmp.Compare(x.prefix, y.prefix)
		}
		return strings.Compare(strs[x.id], strs[y.id])
	})
	ids := make([]uint32, len(entries))
	for i, e := range entries {
		ids[i] = e.id
	}
	return ids
}

// decKey is the sort key of a decimal (total over atomics: no error).
func decKey(d item.Dec) item.SortKey {
	one := [1]item.Item{d}
	sk, _ := item.EncodeSortKey(one[:], false)
	return sk
}

// imageWriter is where finish streams a segment image: the body in order
// through Write, then the header in place through WriteAt. An *os.File is
// one.
type imageWriter interface {
	io.Writer
	io.WriterAt
}

// imageBuffer bounds the bytes finish holds before they go to the writer.
const imageBuffer = 64 << 10

// headerSize is the image header's size: magic, version, rows, columns and
// the payload CRC-32.
const headerSize = len(Magic) + 1 + 4 + 4 + 4

// finish streams the segment image built from lg, the builder's lanes, to
// w, and returns its size, its payload CRC and the zone maps. The body goes
// out through one bounded buffer, its CRC accumulating as it goes; the
// header, which records that CRC, is written last, in place. The first
// error of w is returned.
func (b *builder) finish(lg *laneGroup, w imageWriter) (size int64, crc uint32, zones []ColZone, err error) {
	// Overflow rows reconstruct from their exact encoding. A duplicate-key
	// object among them still answers field lookups, so every top-level
	// string it holds resolves through the dictionary too, and its first
	// value per distinct key is what its columns' zone maps observe.
	var overflow [][]byte
	var dupRows []*item.Object
	var dupStrs []string
	for ri, r := range b.rows {
		if b.shape[ri] >= 0 {
			continue
		}
		overflow = append(overflow, appendValue(nil, r))
		if o, ok := r.(*item.Object); ok {
			dupRows = append(dupRows, o)
			for i := 0; i < o.Len(); i++ {
				if s, isStr := o.ValueAt(i).(item.Str); isStr {
					dupStrs = append(dupStrs, string(s))
				}
			}
		}
	}
	table, codes := mergeDictionary(lg, dupStrs)

	out := &stream{w: w, buf: make([]byte, headerSize, imageBuffer), body: headerSize}
	out.uvarint(uint64(len(b.cols)))
	for _, c := range b.cols {
		out.str(c)
	}
	out.uvarint(uint64(len(table)))
	for _, s := range table {
		out.str(s)
	}
	for _, si := range b.shape {
		if si >= 0 {
			put(out, b.shapes.Key(si))
			continue
		}
		out.uvarint(shapeOverflow)
		out.uvarint(uint64(len(overflow[0])))
		out.write(overflow[0])
		overflow = overflow[1:]
	}
	// Typed lanes, one column at a time: each column's block is its dense
	// tag lane followed by the sparse value lane in row order, prefixed by
	// the block's byte length so a projecting reader skips a whole column
	// without parsing it.
	for id := range b.cols {
		l := &lg.lanes[id]
		out.uvarint(uint64(len(l.tags) + l.valuesLen(codes)))
		out.write(l.tags)
		l.writeValues(out, codes)
	}
	out.flush()
	if out.err != nil {
		return 0, 0, nil, out.err
	}
	var head [headerSize]byte
	copy(head[:], Magic)
	head[len(Magic)] = Version
	binary.LittleEndian.PutUint32(head[len(Magic)+1:], uint32(len(b.rows)))
	binary.LittleEndian.PutUint32(head[len(Magic)+5:], uint32(len(b.cols)))
	binary.LittleEndian.PutUint32(head[len(Magic)+9:], out.crc)
	if _, err := w.WriteAt(head[:], 0); err != nil {
		return 0, 0, nil, err
	}

	// Zone maps, by column name: a lane's own accumulator plus its strings,
	// now that they have codes, plus what duplicate-key rows hold under that
	// name (possibly a name no lane has).
	byName := make(map[string]*zoneAcc, len(b.cols))
	names := slices.Clone(b.cols)
	for id, name := range b.cols {
		l := &lg.lanes[id]
		l.zone.addStrings(l.strs, codes, table)
		byName[name] = &l.zone
	}
	for _, o := range dupRows {
		keys := o.Keys()
		for i, k := range keys {
			if slices.Index(keys[:i], k) >= 0 {
				continue // lookup semantics: the first occurrence wins, once
			}
			if byName[k] == nil {
				byName[k] = &zoneAcc{}
				names = append(names, k)
			}
			byName[k].observe(o.ValueAt(i))
		}
	}
	slices.Sort(names)
	zones = make([]ColZone, len(names))
	for i, name := range names {
		zones[i] = ColZone{Name: name, Zone: byName[name].zoneMap()}
	}
	return out.n, out.crc, zones, nil
}

// mergeDictionary builds the segment dictionary — every distinct string of
// the lanes and of the duplicate-key rows (extra), sorted, so that
// comparison kernels can rank a literal against it by binary search — and
// returns with it the code of every string the lanes interned, by interned
// id. The lanes' strings arrive distinct and sorted; one merge with the
// sorted extra ranks them all.
func mergeDictionary(lg *laneGroup, extra []string) (table []string, codes []uint32) {
	slices.Sort(extra)
	codes = make([]uint32, len(lg.strs))
	table = make([]string, 0, len(lg.strs)+len(extra))
	add := func(s string) {
		if len(table) == 0 || table[len(table)-1] != s {
			table = append(table, s)
		}
	}
	for _, id := range lg.sorted {
		s := lg.strs[id]
		for ; len(extra) > 0 && extra[0] < s; extra = extra[1:] {
			add(extra[0])
		}
		add(s)
		codes[id] = uint32(len(table) - 1)
	}
	for _, s := range extra {
		add(s)
	}
	return table, codes
}

// uvarintLen is the encoded size of n as a uvarint.
func uvarintLen(n int) int {
	return (bits.Len64(uint64(n)|1) + 6) / 7
}

// valuesLen is the size of the lane's final value bytes: its value bytes
// plus the code of every string value.
func (l *lane) valuesLen(codes []uint32) int {
	n := len(l.vals)
	for _, id := range l.strs {
		n += uvarintLen(int(codes[id]))
	}
	return n
}

// writeValues writes the lane's final value bytes: its value bytes with the
// code of every string value, now that codes exist, spliced in at the
// string's row position.
func (l *lane) writeValues(out *stream, codes []uint32) {
	if len(l.strs) == 0 {
		out.write(l.vals)
		return
	}
	if len(l.vals) == 0 {
		// Only strings carry value bytes: no tag walk needed.
		for _, id := range l.strs {
			out.uvarint(uint64(codes[id]))
		}
		return
	}
	// Value bytes go out in runs, each ended by a string's code.
	vals, strs, run := l.vals, l.strs, 0
	for _, tag := range l.tags {
		switch tag {
		case tagString:
			out.write(vals[:run])
			out.uvarint(uint64(codes[strs[0]]))
			vals, strs, run = vals[run:], strs[1:], 0
		case tagInt:
			for vals[run]&0x80 != 0 {
				run++
			}
			run++
		case tagDouble:
			run += 8
		case tagDec, tagItem:
			size, w := binary.Uvarint(vals[run:])
			run += w + int(size)
		}
	}
	out.write(vals)
}

// stream is finish's bounded buffer in front of an imageWriter. It counts
// the bytes it passes on and folds those from body on into crc. A write
// error sticks: later writes are dropped.
type stream struct {
	w    imageWriter
	buf  []byte
	body int // bytes at the start of buf not covered by crc: the header's room
	n    int64
	crc  uint32
	err  error
}

// flush passes the buffered bytes on and empties the buffer.
func (s *stream) flush() {
	if s.err == nil && len(s.buf) > 0 {
		s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[s.body:])
		_, s.err = s.w.Write(s.buf)
		s.n += int64(len(s.buf))
	}
	s.buf, s.body = s.buf[:0], 0
}

func (s *stream) uvarint(v uint64) {
	if cap(s.buf)-len(s.buf) < binary.MaxVarintLen64 {
		s.flush()
	}
	s.buf = binary.AppendUvarint(s.buf, v)
}

func (s *stream) write(p []byte) { put(s, p) }

func (s *stream) str(p string) {
	s.uvarint(uint64(len(p)))
	put(s, p)
}

// put buffers p, flushing each time the buffer fills.
func put[T string | []byte](s *stream, p T) {
	for len(p) > 0 {
		if len(s.buf) == cap(s.buf) {
			s.flush()
		}
		k := min(len(p), cap(s.buf)-len(s.buf))
		s.buf = append(s.buf, p[:k]...)
		p = p[k:]
	}
}

// memImage is an imageWriter over memory.
type memImage []byte

func (m *memImage) Write(p []byte) (int, error) {
	*m = append(*m, p...)
	return len(p), nil
}

func (m *memImage) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(*m)) {
		return 0, errors.New("memImage: write outside the image")
	}
	return copy((*m)[off:], p), nil
}

// zoneAcc folds one column's values into its zone map. The minimum and
// maximum are kept per kind of value — integers as integers, other numbers
// as sort keys, strings as dictionary codes until the dictionary is ranked —
// and combined once, at the end: a sort key's tag orders null < false <
// true < strings < numbers, so the column's extremes are the extremes of
// its lowest and highest kind present.
type zoneAcc struct {
	present, nulls int
	kinds          uint32

	hasInt       bool
	intLo, intHi int64
	hasNum       bool
	numLo, numHi item.SortKey
	hasStr       bool
	strLo, strHi string
}

func (z *zoneAcc) addInt(v int64) {
	z.kinds |= KindInt
	if !z.hasInt {
		z.hasInt, z.intLo, z.intHi = true, v, v
		return
	}
	z.intLo, z.intHi = min(z.intLo, v), max(z.intHi, v)
}

// addNumber folds the sort key of a double or decimal.
func (z *zoneAcc) addNumber(sk item.SortKey) {
	if !z.hasNum {
		z.hasNum, z.numLo, z.numHi = true, sk, sk
		return
	}
	if sk.Compare(z.numLo) < 0 {
		z.numLo = sk
	}
	if sk.Compare(z.numHi) > 0 {
		z.numHi = sk
	}
}

// addStrings folds a lane's string values, given as interned ids, by their
// codes: code order is string order, so only the extremes touch the table.
func (z *zoneAcc) addStrings(ids, codes []uint32, table []string) {
	if len(ids) == 0 {
		return
	}
	lo, hi := codes[ids[0]], codes[ids[0]]
	for _, id := range ids[1:] {
		lo, hi = min(lo, codes[id]), max(hi, codes[id])
	}
	z.addString(table[lo])
	z.addString(table[hi])
}

func (z *zoneAcc) addString(s string) {
	z.kinds |= KindString
	if !z.hasStr {
		z.hasStr, z.strLo, z.strHi = true, s, s
		return
	}
	z.strLo, z.strHi = min(z.strLo, s), max(z.strHi, s)
}

// observe folds one value by itself: the path of duplicate-key rows, whose
// values live in no lane.
func (z *zoneAcc) observe(v item.Item) {
	z.present++
	switch t := v.(type) {
	case item.Null:
		z.nulls++
		z.kinds |= KindNull
	case item.Bool:
		if t {
			z.kinds |= KindTrue
		} else {
			z.kinds |= KindFalse
		}
	case item.Int:
		z.addInt(int64(t))
	case item.Double:
		z.kinds |= KindDouble
		z.addNumber(item.NumberKey(float64(t)))
	case item.Dec:
		z.kinds |= KindDec
		z.addNumber(decKey(t))
	case item.Str:
		z.addString(string(t))
	default:
		z.kinds |= KindItem // non-atomic: no sort key, min/max unchanged
	}
}

// zoneMap combines the per-kind extremes into the column's zone map.
func (z *zoneAcc) zoneMap() ZoneMap {
	zm := ZoneMap{Present: z.present, Nulls: z.nulls, Kinds: z.kinds}
	var keys []item.SortKey // the extremes of each kind present, in tag order
	if z.kinds&KindNull != 0 {
		keys = append(keys, item.SortKey{Tag: item.TagNull})
	}
	if z.kinds&KindFalse != 0 {
		keys = append(keys, item.SortKey{Tag: item.TagFalse})
	}
	if z.kinds&KindTrue != 0 {
		keys = append(keys, item.SortKey{Tag: item.TagTrue})
	}
	if z.hasStr {
		keys = append(keys, item.SortKey{Tag: item.TagString, Str: z.strLo}, item.SortKey{Tag: item.TagString, Str: z.strHi})
	}
	num := *z // integers join the other numbers as sort keys
	if z.hasInt {
		num.addNumber(item.IntKey(z.intLo))
		num.addNumber(item.IntKey(z.intHi))
	}
	if num.hasNum {
		keys = append(keys, num.numLo, num.numHi)
	}
	if len(keys) > 0 {
		zm.HasRange = true
		zm.Min, zm.Max = keyOf(keys[0]), keyOf(keys[len(keys)-1])
	}
	return zm
}
