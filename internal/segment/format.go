// Package segment is the persistent columnar storage layer: an immutable
// segment format ingested once from a JSON-lines collection and stored in
// a sibling "<path>.segments" directory, content-hash validated against
// the source. Each segment holds up to Rows rows decomposed into typed
// per-column lanes (int64 / float64 / string / tag, with an exact item
// overflow lane for nested and decimal values), mirroring the
// internal/vector batch layout, plus per-column zone maps (min/max sort
// key, null and missing counts) recorded in the dataset manifest. A
// byte-bounded LRU buffer pool serves decoded segments to the morsel
// scanner, so hot scans never re-parse JSON, and the zone maps let
// prunable predicates skip whole segments before any row is touched.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/big"
	"slices"
	"sort"

	"rumble/internal/item"
	"rumble/internal/keytab"
	"rumble/internal/vector"
)

// Rows is the row capacity of a full segment: four vector batches, so a
// segment always splits into whole BatchSize morsels (the final segment
// of a dataset may be partial).
const Rows = 4096

// Magic opens every segment file.
const Magic = "RSEG"

// Version is the current format version, of segment images and manifests
// alike. Version 2 added the per-segment string dictionary (tagString lane
// values are codes into a sorted string table), and a byte-length prefix on
// every column's lane block so a projecting reader skips untouched columns
// in O(1). Version 3 binds each segment's image CRC in the manifest and
// checksums the manifest itself. Older manifests fail the open-time version
// check, which re-ingests the source.
const Version = 3

// Column value tags of the dense per-column tag lane. The layout mirrors
// internal/vector's column tags, with one extra tag (tagDec) so decimal
// values round-trip exactly instead of through their float64 image.
const (
	tagAbsent byte = iota
	tagNull
	tagFalse
	tagTrue
	tagInt
	tagDouble
	tagString
	tagItem // nested object/array, stored in the exact item encoding
	tagDec  // decimal, stored as a big.Rat string
	tagMax
)

// shape markers: a row is either a column-id list over the dictionary
// (ordinary object row) or an overflow row carrying the exact item
// encoding of the whole value (non-object rows and duplicate-key
// objects, which the dictionary cannot express).
const shapeOverflow = 0

// Error is a structured storage-layer error. Every corruption the store
// detects — truncation, checksum mismatch, lane inconsistencies, a
// manifest whose checksum or bound image CRCs disagree with what is on
// disk — surfaces as one of these, never a panic or silently wrong rows.
type Error struct {
	Path string // file the error was detected in ("" when not file-bound)
	Msg  string
}

func (e *Error) Error() string {
	if e.Path == "" {
		return "segment: " + e.Msg
	}
	return fmt.Sprintf("segment: %s: %s", e.Path, e.Msg)
}

func errf(path, format string, args ...any) error {
	return &Error{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// ColumnSet is the decoded form of one segment, and the only one: the row
// shapes (parsed on every decode, so whole rows can be assembled late, for
// just the rows that survive a pipeline) plus one full-segment-length
// vector.Col per resident field, built straight from the tag and value
// lanes without materializing row items. String lanes stay
// dictionary-encoded (codes in the Ints lane, the shared sorted table in
// Col.Dict). Overflow rows — non-objects, duplicate-key objects —
// contribute their field values through the same item lookup rule Row's
// items answer, so a column is row-for-row identical to vector's Lookup over
// the assembled rows. A ColumnSet is immutable: grow returns a new snapshot
// sharing the shapes, the dictionary and every lane already decoded.
type ColumnSet struct {
	NumRows int
	Dict    []string // the segment string table, shared by every lane

	names    []string    // column dictionary, first-seen order
	shapes   []rowShape  // the distinct plain-object row shapes
	shapeOf  []int32     // per row: index into shapes, or ^index into overflow
	overflow []item.Item // whole values of non-object and duplicate-key rows
	laneOff  int         // payload offset of the first column lane block
	cols     map[string]*vector.Col
	byID     []*vector.Col // resident lanes by column id, nil when not resident
	bytes    int64
}

// rowShape is one distinct plain-object row shape: the column ids in the
// row's key order, and the key layout every row of that shape shares.
type rowShape struct {
	ids  []int
	keys *item.Shape
}

// Col returns the lane column of a resident field (never nil for a field
// that was requested; all-absent when no row of the segment has it).
func (cs *ColumnSet) Col(name string) *vector.Col { return cs.cols[name] }

// has reports whether every one of fields is resident.
func (cs *ColumnSet) has(fields []string) bool {
	if cs == nil {
		return false
	}
	for _, f := range fields {
		if cs.cols[f] == nil {
			return false
		}
	}
	return true
}

// MemBytes estimates the in-memory bytes the column set pins — the row
// shapes, the dictionary strings, the resident typed lanes and any overflow
// items — so the buffer pool budget bounds real memory.
func (cs *ColumnSet) MemBytes() int64 { return cs.bytes }

// Row assembles row i from the lanes: the overflow item for non-object and
// duplicate-key rows, otherwise an object with the row's original key
// order. Every column of the segment must be resident; a shape naming a
// column whose lane holds nothing at that row is a structured error.
func (cs *ColumnSet) Row(i int) (item.Item, error) {
	s := cs.shapeOf[i]
	if s < 0 {
		return cs.overflow[^s], nil
	}
	shape := cs.shapes[s]
	values := make([]item.Item, len(shape.ids))
	for k, id := range shape.ids {
		if c := cs.byID[id]; c != nil {
			values[k] = c.Item(i)
		}
		if values[k] == nil {
			return nil, errf("", "row %d: shape lists column %q but its lane is absent or not resident", i, cs.names[id])
		}
	}
	return item.NewObjectOfShape(shape.keys, values), nil
}

// image is a segment file whose header and payload checksum validated.
type image struct {
	path        string
	rows, ncols int
	crc         uint32 // the header's CRC-32, which the payload matches
	payload     []byte
}

// headerCRC reads the payload CRC-32 an image header records.
func headerCRC(data []byte) uint32 { return binary.LittleEndian.Uint32(data[len(Magic)+9:]) }

// openImage validates a segment image's header and checksum.
func openImage(path string, data []byte) (image, error) {
	head := len(Magic) + 1 + 4 + 4 + 4
	if len(data) < head {
		return image{}, errf(path, "truncated header: %d bytes", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return image{}, errf(path, "bad magic %q", data[:len(Magic)])
	}
	if v := data[len(Magic)]; v != Version {
		return image{}, errf(path, "unsupported version %d", v)
	}
	img := image{
		path:    path,
		rows:    int(binary.LittleEndian.Uint32(data[len(Magic)+1:])),
		ncols:   int(binary.LittleEndian.Uint32(data[len(Magic)+5:])),
		crc:     headerCRC(data),
		payload: data[head:],
	}
	if got := crc32.ChecksumIEEE(img.payload); got != img.crc {
		return image{}, errf(path, "checksum mismatch: header %08x, payload %08x", img.crc, got)
	}
	if img.rows < 0 || img.rows > Rows {
		return image{}, errf(path, "row count %d out of range", img.rows)
	}
	// Every dictionary entry costs at least one payload byte (its length
	// uvarint), so the column count can never exceed the payload size. This
	// is the only header bound the format actually implies — anything
	// tighter falsely rejects sparse/wide data (a short tail segment with
	// many distinct keys). The CRC above guards corruption and the
	// dictionary loop in parsePrefix is bounds-checked.
	if img.ncols < 0 || img.ncols > len(img.payload) {
		return image{}, errf(path, "column count %d exceeds %d payload bytes", img.ncols, len(img.payload))
	}
	return img, nil
}

// parsePrefix parses a validated payload up to the column lane blocks —
// column names, string dictionary, row shapes — into a ColumnSet with no
// lane resident yet; laneOff is where the first lane block starts. Every
// malformation returns a structured error; it never panics on corrupted
// input (FuzzSegmentDecode enforces this).
func parsePrefix(img image) (*ColumnSet, error) {
	path, payload, rows, ncols := img.path, img.payload, img.rows, img.ncols
	r := &reader{path: path, data: payload}
	gotCols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if gotCols != uint64(ncols) {
		return nil, errf(path, "dictionary lists %d columns, header says %d", gotCols, ncols)
	}
	names := make([]string, ncols)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	nstr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Same bound as the column dictionary: every entry costs at least its
	// length byte.
	if nstr > uint64(len(payload)) {
		return nil, errf(path, "string table lists %d entries in %d payload bytes", nstr, len(payload))
	}
	table := make([]string, nstr)
	for i := range table {
		if table[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	cs := &ColumnSet{
		NumRows: rows, Dict: table, names: names,
		shapeOf: make([]int32, rows),
		cols:    map[string]*vector.Col{},
		byID:    make([]*vector.Col, ncols),
	}
	// Rows of one shape repeat the same id-list bytes, so the distinct
	// shapes intern by those bytes and a row costs one index.
	shapeIDs := keytab.New(0)
	var ids []int
	for ri := range cs.shapeOf {
		start := r.off
		marker, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if marker == shapeOverflow {
			raw, err := r.sized()
			if err != nil {
				return nil, err
			}
			vr := &reader{path: path, data: raw}
			v, err := vr.value(0)
			if err != nil {
				return nil, err
			}
			if vr.off != len(vr.data) {
				return nil, errf(path, "overflow row %d: %d trailing bytes", ri, len(vr.data)-vr.off)
			}
			cs.shapeOf[ri] = ^int32(len(cs.overflow))
			cs.overflow = append(cs.overflow, v)
			continue
		}
		if marker-1 > uint64(ncols*4+16) {
			return nil, errf(path, "row %d: implausible column list length %d", ri, marker-1)
		}
		ids = ids[:0]
		for n := marker - 1; n > 0; n-- {
			id, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(ncols) {
				return nil, errf(path, "row %d: column id %d out of range", ri, id)
			}
			ids = append(ids, int(id))
		}
		si, fresh := shapeIDs.IDBytes(payload[start:r.off])
		if fresh {
			keys := make([]string, len(ids))
			for k, id := range ids {
				keys[k] = names[id]
			}
			cs.shapes = append(cs.shapes, rowShape{ids: slices.Clone(ids), keys: item.NewShape(keys)})
		}
		cs.shapeOf[ri] = si
	}
	cs.laneOff = r.off
	cs.bytes = int64(len(cs.shapeOf)) * 4
	for _, s := range table {
		cs.bytes += stringBytes + int64(len(s))
	}
	for _, shape := range cs.shapes {
		cs.bytes += int64(len(shape.ids)) * (8 + stringBytes)
	}
	for _, v := range cs.overflow {
		cs.bytes += ifaceBytes + itemCost(v)
	}
	return cs, nil
}

// laneBlock reads one column's length-prefixed lane block at r and returns
// a bounded reader over it, or skips it entirely when parse is false.
func laneBlock(r *reader, col string, parse bool) (*reader, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, errf(r.path, "column %q: lane block length %d overruns buffer", col, n)
	}
	block := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	if !parse {
		return nil, nil
	}
	return &reader{path: r.path, data: block}, nil
}

// laneBytes is the in-memory cost of one resident lane: the tag lane and
// only the typed lanes the column allocated, at their capacity.
func laneBytes(c *vector.Col) int64 {
	n := int64(len(c.Tags)) + int64(cap(c.Ints))*8 + int64(cap(c.Nums))*8 +
		int64(cap(c.Strs))*stringBytes + int64(cap(c.Items))*ifaceBytes
	for _, s := range c.Strs {
		n += int64(len(s))
	}
	for _, it := range c.Items {
		if it != nil {
			n += itemCost(it)
		}
	}
	return n
}

// newLaneCol returns a full-length, all-absent column sharing the segment
// dictionary: only its tag lane is allocated.
func newLaneCol(rows int, dict []string) *vector.Col {
	return &vector.Col{Tags: make([]vector.Tag, rows), Dict: dict}
}

// materializeStrings converts a dictionary column to plain strings: every
// code row resolves through the dictionary into the Strs lane. Needed only
// when an overflow row carries a string the table does not list (possible
// in hand-crafted images; Encode always lists them).
func materializeStrings(c *vector.Col) {
	dict := c.Dict
	c.Dict = nil
	for i, tg := range c.Tags {
		if tg == vector.TagString {
			c.SetItem(i, item.Str(dict[c.Ints[i]]))
		}
	}
}

// setLaneValue overwrites row ri of c with an overflow row's field value,
// routing it exactly as Col.AppendItem would; a string the dictionary
// lists becomes its code.
func setLaneValue(c *vector.Col, ri int, v item.Item) {
	if t, ok := v.(item.Str); ok && c.Dict != nil {
		i := sort.SearchStrings(c.Dict, string(t))
		if i < len(c.Dict) && c.Dict[i] == string(t) {
			c.SetItem(ri, item.Int(i)) // the code rides the Ints lane
			c.Tags[ri] = vector.TagString
			return
		}
		materializeStrings(c)
	}
	c.SetItem(ri, v)
}

// decodeLaneCol parses one column's lane block into a vector column:
// dense tags first, then the sparse value lane, with string values as
// dictionary codes.
func decodeLaneCol(path, name string, lr *reader, rows int, table []string) (*vector.Col, error) {
	if len(lr.data) < rows {
		return nil, errf(path, "column %q: truncated tag lane", name)
	}
	tags := lr.data[:rows]
	lr.off = rows
	c := newLaneCol(rows, table)
	// Allocate only the lanes some row's tag names (strings are codes in
	// Ints); an invalid tag fails in the loop below.
	var ints, nums, items bool
	for _, tg := range tags {
		switch tg {
		case tagInt, tagString:
			ints = true
		case tagDouble:
			nums = true
		case tagDec, tagItem:
			items = true
		}
	}
	if ints {
		c.Ints = make([]int64, rows)
	}
	if nums {
		c.Nums = make([]float64, rows)
	}
	if items {
		c.Items = make([]item.Item, rows)
	}
	for ri := 0; ri < rows; ri++ {
		switch tags[ri] {
		case tagAbsent:
		case tagNull:
			c.Tags[ri] = vector.TagNull
		case tagFalse:
			c.Tags[ri] = vector.TagFalse
		case tagTrue:
			c.Tags[ri] = vector.TagTrue
		case tagInt:
			v, err := lr.varint()
			if err != nil {
				return nil, err
			}
			c.Tags[ri] = vector.TagInt
			c.Ints[ri] = v
		case tagDouble:
			if len(lr.data)-lr.off < 8 {
				return nil, errf(path, "column %q: truncated double lane", name)
			}
			c.Tags[ri] = vector.TagDouble
			c.Nums[ri] = math.Float64frombits(binary.LittleEndian.Uint64(lr.data[lr.off:]))
			lr.off += 8
		case tagString:
			code, err := lr.uvarint()
			if err != nil {
				return nil, err
			}
			if code >= uint64(len(table)) {
				return nil, errf(path, "column %q row %d: string code %d out of range", name, ri, code)
			}
			c.Tags[ri] = vector.TagString
			c.Ints[ri] = int64(code)
		case tagDec:
			s, err := lr.str()
			if err != nil {
				return nil, err
			}
			rat, ok := new(big.Rat).SetString(s)
			if !ok {
				return nil, errf(path, "column %q: invalid decimal %q", name, s)
			}
			c.Tags[ri] = vector.TagItem
			c.Items[ri] = item.NewDecimal(rat)
		case tagItem:
			raw, err := lr.sized()
			if err != nil {
				return nil, err
			}
			vr := &reader{path: path, data: raw}
			v, err := vr.value(0)
			if err != nil {
				return nil, err
			}
			c.Tags[ri] = vector.TagItem
			c.Items[ri] = v
		default:
			return nil, errf(path, "column %q row %d: invalid lane tag %d", name, ri, tags[ri])
		}
	}
	if lr.off != len(lr.data) {
		return nil, errf(path, "column %q: %d trailing lane bytes", name, len(lr.data)-lr.off)
	}
	return c, nil
}

// DecodeColumns parses a segment byte image into a ColumnSet holding the
// lanes of fields. Every malformation — truncation, a flipped bit anywhere
// in the payload (checksum), invalid lane data — returns a structured
// error, never a panic (FuzzSegmentDecode enforces this). The ColumnSet
// never aliases data: the caller may reuse the buffer once this returns.
func DecodeColumns(path string, data []byte, fields []string) (*ColumnSet, error) {
	img, err := openImage(path, data)
	if err != nil {
		return nil, err
	}
	return (*ColumnSet)(nil).grow(img, fields)
}

// grow returns a snapshot holding every lane cs holds plus the lanes of
// fields: the ones not yet resident decode from the segment image in one
// pass, every other column's lane block skipped via its byte-length prefix
// without being parsed. A nil cs starts from the image's parsed prefix.
// cs is never modified, and nothing the result holds aliases img: strings
// are copied out of the payload, tags are read in place.
func (cs *ColumnSet) grow(img image, fields []string) (*ColumnSet, error) {
	path := img.path
	if cs == nil {
		var err error
		if cs, err = parsePrefix(img); err != nil {
			return nil, err
		}
	} else if img.rows != cs.NumRows || cs.laneOff > len(img.payload) {
		return nil, errf(path, "segment image changed under its resident lanes")
	}
	r := &reader{path: path, data: img.payload, off: cs.laneOff}
	next := *cs
	next.cols = maps.Clone(cs.cols)
	next.byID = slices.Clone(cs.byID)
	want := map[string]bool{}
	var missing []string
	for _, f := range fields {
		if cs.cols[f] == nil && !want[f] {
			want[f] = true
			missing = append(missing, f)
		}
	}
	for id, name := range cs.names {
		lr, err := laneBlock(r, name, want[name])
		if err != nil {
			return nil, err
		}
		if lr == nil {
			continue
		}
		c, err := decodeLaneCol(path, name, lr, cs.NumRows, cs.Dict)
		if err != nil {
			return nil, err
		}
		next.cols[name], next.byID[id] = c, c
	}
	if r.off != len(r.data) {
		return nil, errf(path, "%d trailing payload bytes", len(r.data)-r.off)
	}
	// Fields no lane carries are still resident: all-absent columns, which
	// overflow rows below may populate.
	for _, f := range missing {
		if next.cols[f] == nil {
			next.cols[f] = newLaneCol(cs.NumRows, cs.Dict)
		}
	}
	for ri, s := range cs.shapeOf {
		if s >= 0 {
			continue
		}
		obj, ok := cs.overflow[^s].(*item.Object)
		if !ok {
			continue // non-object rows are absent in every column
		}
		for _, f := range missing {
			if fv, found := obj.Get(f); found {
				setLaneValue(next.cols[f], ri, fv)
			}
		}
	}
	for _, f := range missing {
		next.bytes += laneBytes(next.cols[f])
	}
	return &next, nil
}

// --- exact item encoding (overflow rows and nested lane values) ---

// Value kind bytes of the exact item encoding.
const (
	ivNull byte = iota
	ivFalse
	ivTrue
	ivInt
	ivDouble
	ivString
	ivDec
	ivArray
	ivObject
)

// maxValueDepth bounds nesting when decoding untrusted bytes.
const maxValueDepth = 200

// appendValue appends the exact recursive encoding of v: unlike the
// canonical JSON rendering, decimals keep their full big.Rat value, so
// decode reproduces v bit for bit.
func appendValue(dst []byte, v item.Item) []byte {
	switch t := v.(type) {
	case item.Null:
		return append(dst, ivNull)
	case item.Bool:
		if bool(t) {
			return append(dst, ivTrue)
		}
		return append(dst, ivFalse)
	case item.Int:
		dst = append(dst, ivInt)
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], int64(t))
		return append(dst, buf[:n]...)
	case item.Double:
		dst = append(dst, ivDouble)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(t)))
		return append(dst, buf[:]...)
	case item.Str:
		dst = append(dst, ivString)
		return appendString(dst, string(t))
	case item.Dec:
		dst = append(dst, ivDec)
		return appendString(dst, t.Rat().RatString())
	case *item.Array:
		dst = append(dst, ivArray)
		dst = appendUvarint(dst, uint64(t.Len()))
		for i := 0; i < t.Len(); i++ {
			dst = appendValue(dst, t.Member(i))
		}
		return dst
	case *item.Object:
		dst = append(dst, ivObject)
		dst = appendUvarint(dst, uint64(t.Len()))
		for i, k := range t.Keys() {
			dst = appendString(dst, k)
			dst = appendValue(dst, t.ValueAt(i))
		}
		return dst
	default:
		// Unreachable for ingested data; keep encode total anyway.
		dst = append(dst, ivString)
		return appendString(dst, v.String())
	}
}

// reader is a bounds-checked cursor over untrusted bytes.
type reader struct {
	path string
	data []byte
	off  int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errf(r.path, "invalid uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, errf(r.path, "invalid varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) str() (string, error) {
	b, err := r.sized()
	return string(b), err
}

func (r *reader) sized() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, errf(r.path, "length %d overruns buffer at offset %d", n, r.off)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) value(depth int) (item.Item, error) {
	if depth > maxValueDepth {
		return nil, errf(r.path, "value nesting exceeds %d", maxValueDepth)
	}
	if r.off >= len(r.data) {
		return nil, errf(r.path, "truncated value at offset %d", r.off)
	}
	kind := r.data[r.off]
	r.off++
	switch kind {
	case ivNull:
		return item.Null{}, nil
	case ivFalse:
		return item.Bool(false), nil
	case ivTrue:
		return item.Bool(true), nil
	case ivInt:
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return item.Int(v), nil
	case ivDouble:
		if len(r.data)-r.off < 8 {
			return nil, errf(r.path, "truncated double at offset %d", r.off)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
		r.off += 8
		return item.Double(v), nil
	case ivString:
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		return item.Str(s), nil
	case ivDec:
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		rat, ok := new(big.Rat).SetString(s)
		if !ok {
			return nil, errf(r.path, "invalid decimal %q", s)
		}
		return item.NewDecimal(rat), nil
	case ivArray:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(r.data)-r.off) {
			return nil, errf(r.path, "array length %d overruns buffer", n)
		}
		members := make([]item.Item, n)
		for i := range members {
			if members[i], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return item.NewArray(members), nil
	case ivObject:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(r.data)-r.off) {
			return nil, errf(r.path, "object length %d overruns buffer", n)
		}
		keys := make([]string, n)
		values := make([]item.Item, n)
		for i := range keys {
			if keys[i], err = r.str(); err != nil {
				return nil, err
			}
			if values[i], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return item.NewObject(keys, values), nil
	default:
		return nil, errf(r.path, "invalid value kind %d at offset %d", kind, r.off-1)
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendSized(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
