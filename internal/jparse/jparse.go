// Package jparse is a streaming JSON decoder that builds item.Item values
// directly from bytes, with no intermediate representation — the same
// optimization Rumble obtains from the JSONiter parser. It is the hot path
// of json-file(): every line of a JSON-Lines input goes through a Decoder.
//
// A Decoder is stateful across the values it decodes. It walks a bounded
// trie of key sequences, so objects with the same keys in the same order
// share one immutable item.Shape (key slice and lookup index built once per
// shape, never per object), and it can project: given a field list, every
// other top-level member is validated and skipped by the same state machine
// that decodes, so a malformed byte in an unread field raises exactly the
// error a full decode would. Values repeat across records too: a Decoder
// boxes the short strings it keeps through a fixed, direct-mapped cache, so
// a value seen before returns the item boxed then and allocates nothing.
// Strings are scanned for their end a word (eight bytes) at a time. Parse
// is the one-shot entry over a pooled Decoder; there is no second JSON
// grammar.
//
// Number typing follows JSONiq: an integer literal becomes an integer item,
// a literal with a fraction part becomes a decimal, and a literal with an
// exponent becomes a double.
package jparse

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"rumble/internal/item"
)

// maxDepth bounds recursion so that adversarial inputs cannot overflow the
// stack of an executor goroutine.
const maxDepth = 512

// maxShapeNodes bounds the shape trie of one Decoder. A source whose objects
// keep arriving with key sequences never seen before stops growing the trie
// there: known shapes stay shared, new ones decode with per-object keys (the
// pre-trie behaviour) — slower, never an error.
const maxShapeNodes = 4096

// linearKids is the fan-out up to which a trie node finds a child by
// scanning; wider nodes index their children by key.
const linearKids = 8

// Decoder decodes JSON values, sharing object shapes across them. It is not
// safe for concurrent use: give each partition task, morsel worker or ingest
// parse worker its own. The items it returns are immutable and outlive it.
type Decoder struct {
	data []byte
	pos  int

	stack   []item.Item // values of the containers being decoded, innermost last
	scratch []byte      // unescape buffer of the string being decoded

	all    *node // trie of full key sequences
	top    *node // trie of projected top-level objects; nil when decoding whole
	fields []string
	nodes  int

	strs *[strSlots]item.Item // boxed short strings; nil until the first is kept
}

// strSlots is the size of a decoder's direct-mapped cache of boxed string
// items, strMaxLen the longest string it holds. The cache never grows: a
// decoder pins at most strSlots strings of strMaxLen bytes.
const (
	strSlots  = 128
	strMaxLen = 32
)

// strSlot is the cache slot of string b: FNV-1a, so that which strings
// share a slot, and so what a decode allocates, is the same in every
// process.
func strSlot(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h % strSlots
}

// node is one key of a key sequence in the shape trie. The path from the
// root spells the keys of an object in member order; keep marks the members
// the decoder builds (all of them below Decoder.all, the projected fields
// below Decoder.top), and shape is the layout of the kept keys, built when
// the first object ends here.
type node struct {
	key    string
	keep   bool
	kept   int // kept keys on the path, this node included
	parent *node
	kids   []*node          // children, scanned, while there are at most linearKids
	byKey  map[string]*node // children of a wider node; lookup only, never ranged
	shape  *item.Shape
}

// NewDecoder returns a decoder that decodes every member of every value.
func NewDecoder() *Decoder {
	return &Decoder{all: &node{}}
}

// NewProjectingDecoder returns a decoder that keeps, of a top-level object,
// only the members whose key is one of fields (all occurrences, in member
// order; none when fields is empty) and validates-and-skips the rest. Kept
// values and top-level non-objects decode whole.
func NewProjectingDecoder(fields []string) *Decoder {
	d := NewDecoder()
	d.top = &node{}
	d.fields = fields
	return d
}

var decoders = sync.Pool{New: func() any { return NewDecoder() }}

// Parse parses a single JSON value from data. Trailing whitespace is
// permitted; any other trailing content is an error.
func Parse(data []byte) (item.Item, error) {
	d := decoders.Get().(*Decoder)
	v, err := d.Decode(data)
	decoders.Put(d)
	return v, err
}

// Decode decodes the single JSON value in data, under the decoder's
// projection. Trailing whitespace is permitted; any other trailing content
// is an error. The result does not alias data.
func (d *Decoder) Decode(data []byte) (item.Item, error) {
	d.data, d.pos = data, 0
	v, err := d.document()
	// An idle (pooled) decoder pins neither its input nor, after a failed
	// decode, the values of the containers it left open.
	d.data = nil
	if err != nil {
		clear(d.stack)
		d.stack = d.stack[:0]
		return nil, err
	}
	return v, nil
}

func (d *Decoder) document() (item.Item, error) {
	d.skipSpace()
	var v item.Item
	var err error
	if d.top != nil && d.pos < len(d.data) && d.data[d.pos] == '{' {
		v, err = d.object(0, d.top)
	} else {
		v, err = d.value(0, true)
	}
	if err != nil {
		return nil, err
	}
	d.skipSpace()
	if d.pos != len(d.data) {
		return nil, d.errorf("trailing content at offset %d", d.pos)
	}
	return v, nil
}

func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("json: "+format, args...)
}

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// value decodes the value at pos. With keep false it runs the same checks
// and raises the same errors but builds nothing and returns nil.
func (d *Decoder) value(depth int, keep bool) (item.Item, error) {
	if depth > maxDepth {
		return nil, d.errorf("value nested deeper than %d levels", maxDepth)
	}
	if d.pos >= len(d.data) {
		return nil, d.errorf("unexpected end of input")
	}
	switch c := d.data[d.pos]; c {
	case '{':
		if keep {
			return d.object(depth, d.all)
		}
		return d.object(depth, nil)
	case '[':
		return d.array(depth, keep)
	case '"':
		b, err := d.strBytes()
		if err != nil || !keep {
			return nil, err
		}
		return d.str(b), nil
	case 't':
		if err := d.expect("true"); err != nil {
			return nil, err
		}
		return item.Bool(true), nil
	case 'f':
		if err := d.expect("false"); err != nil {
			return nil, err
		}
		return item.Bool(false), nil
	case 'n':
		if err := d.expect("null"); err != nil {
			return nil, err
		}
		return item.Null{}, nil
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			return d.number(keep)
		}
		return nil, d.errorf("unexpected character %q at offset %d", c, d.pos)
	}
}

func (d *Decoder) expect(lit string) error {
	if d.pos+len(lit) > len(d.data) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.errorf("invalid literal at offset %d", d.pos)
	}
	d.pos += len(lit)
	return nil
}

// object decodes the object at pos along the trie rooted at root: d.all for
// an object decoded whole, d.top for a projected top-level one, nil to
// validate and skip it.
func (d *Decoder) object(depth int, root *node) (item.Item, error) {
	d.pos++ // '{'
	base := len(d.stack)
	n := root
	// Past the node bound the object leaves the trie (n == nil while root
	// is not) and collects its kept keys itself.
	var loose []string
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return d.finishObject(root, n, loose, base), nil
	}
	for {
		d.skipSpace()
		if d.pos >= len(d.data) || d.data[d.pos] != '"' {
			return nil, d.errorf("expected object key at offset %d", d.pos)
		}
		k, err := d.strBytes()
		if err != nil {
			return nil, err
		}
		keep := false
		if n != nil {
			if c := d.child(n, k, root); c != nil {
				n, keep = c, c.keep
			} else {
				loose = n.keptKeys(make([]string, n.kept, n.kept+4))
				n = nil
			}
		}
		if n == nil && root != nil {
			if keep = d.wants(k, root); keep {
				loose = append(loose, string(k))
			}
		}
		d.skipSpace()
		if d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return nil, d.errorf("expected ':' at offset %d", d.pos)
		}
		d.pos++
		d.skipSpace()
		v, err := d.value(depth+1, keep)
		if err != nil {
			return nil, err
		}
		if keep {
			d.stack = append(d.stack, v)
		}
		d.skipSpace()
		if d.pos >= len(d.data) {
			return nil, d.errorf("unterminated object")
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return d.finishObject(root, n, loose, base), nil
		default:
			return nil, d.errorf("expected ',' or '}' at offset %d", d.pos)
		}
	}
}

// finishObject pops the object's kept values off the stack into an object of
// the shape its trie node names (or of its own loose keys off the trie).
func (d *Decoder) finishObject(root, n *node, loose []string, base int) item.Item {
	if root == nil {
		return nil
	}
	values := d.pop(base)
	if n == nil {
		return item.NewObject(loose, values)
	}
	if n.shape == nil {
		n.shape = item.NewShape(n.keptKeys(make([]string, n.kept)))
	}
	return item.NewObjectOfShape(n.shape, values)
}

// pop moves the values above base off the stack into an exact-size slice.
func (d *Decoder) pop(base int) []item.Item {
	var values []item.Item
	if len(d.stack) > base {
		values = make([]item.Item, len(d.stack)-base)
		copy(values, d.stack[base:])
		clear(d.stack[base:])
		d.stack = d.stack[:base]
	}
	return values
}

// keptKeys fills the first n.kept entries of dst with the kept keys on the
// path to n, in member order.
func (n *node) keptKeys(dst []string) []string {
	for c := n; c.parent != nil; c = c.parent {
		if c.keep {
			dst[c.kept-1] = c.key
		}
	}
	return dst
}

// child returns the node following n by key, growing the trie when the key
// is new there, or nil when the trie is full.
func (d *Decoder) child(n *node, key []byte, root *node) *node {
	if n.byKey != nil {
		if c := n.byKey[string(key)]; c != nil {
			return c
		}
	} else {
		for _, c := range n.kids {
			if c.key == string(key) {
				return c
			}
		}
	}
	if d.nodes >= maxShapeNodes {
		return nil
	}
	d.nodes++
	c := &node{key: string(key), parent: n, kept: n.kept}
	if c.keep = d.wants(key, root); c.keep {
		c.kept++
	}
	if n.byKey != nil {
		n.byKey[c.key] = c
		return c
	}
	if n.kids = append(n.kids, c); len(n.kids) > linearKids {
		n.byKey = make(map[string]*node, 2*len(n.kids))
		for _, k := range n.kids {
			n.byKey[k.key] = k
		}
		n.kids = nil
	}
	return c
}

// wants reports whether an object decoded below root keeps the member key.
func (d *Decoder) wants(key []byte, root *node) bool {
	if root != d.top {
		return true
	}
	for _, f := range d.fields {
		if f == string(key) {
			return true
		}
	}
	return false
}

func (d *Decoder) array(depth int, keep bool) (item.Item, error) {
	d.pos++ // '['
	base := len(d.stack)
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		return d.finishArray(keep, base), nil
	}
	for {
		d.skipSpace()
		v, err := d.value(depth+1, keep)
		if err != nil {
			return nil, err
		}
		if keep {
			d.stack = append(d.stack, v)
		}
		d.skipSpace()
		if d.pos >= len(d.data) {
			return nil, d.errorf("unterminated array")
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return d.finishArray(keep, base), nil
		default:
			return nil, d.errorf("expected ',' or ']' at offset %d", d.pos)
		}
	}
}

func (d *Decoder) finishArray(keep bool, base int) item.Item {
	if !keep {
		return nil
	}
	return item.NewArray(d.pop(base))
}

// str returns b as a string item. A string of at most strMaxLen bytes goes
// through the decoder's cache: a hit returns the item boxed before (items
// are immutable, so values that repeat across records share one), a miss
// copies and boxes b and takes over its slot.
func (d *Decoder) str(b []byte) item.Item {
	if len(b) > strMaxLen {
		return item.Str(b)
	}
	if d.strs == nil {
		d.strs = new([strSlots]item.Item)
	}
	slot := &d.strs[strSlot(b)]
	if s, ok := (*slot).(item.Str); !ok || string(s) != string(b) {
		*slot = item.Str(b)
	}
	return *slot
}

// strBytes decodes the string at pos and returns its bytes: a view of the
// input when it has no escapes, of the scratch buffer otherwise — valid
// until the next string is decoded.
func (d *Decoder) strBytes() ([]byte, error) {
	d.pos++ // opening quote
	start := d.pos
	// Fast path: a quote with no escape or control character before it.
	i := special(d.data, start)
	if i == len(d.data) {
		return nil, d.errorf("unterminated string")
	}
	if d.data[i] == '"' {
		d.pos = i + 1
		return d.data[start:i], nil
	}
	return d.strBytesSlow(start, i)
}

// Byte-lane masks of the word scan: 0x01 and 0x80 in every byte.
const (
	lows  = 0x0101010101010101
	highs = 0x8080808080808080
)

// special returns the index of the first '"', '\\' or byte below 0x20 in
// data at or after i, or len(data) when there is none. It tests eight bytes
// per load: in v := x^(c*lows) a byte of x equal to c is zero, and
// (v-lows)&^v&highs flags the zero bytes of v, as (x-0x20*lows)&^x&highs
// flags the bytes of x below 0x20. A borrow can flag a byte only above a
// truly flagged one, so the lowest flag is exact.
func special(data []byte, i int) int {
	for ; i+8 <= len(data); i += 8 {
		x := binary.LittleEndian.Uint64(data[i:])
		q := x ^ ('"' * lows)
		b := x ^ ('\\' * lows)
		if m := ((q-lows)&^q | (b-lows)&^b | (x-0x20*lows)&^x) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(data); i++ {
		if c := data[i]; c == '"' || c == '\\' || c < 0x20 {
			return i
		}
	}
	return len(data)
}

func (d *Decoder) strBytesSlow(start, firstSpecial int) ([]byte, error) {
	buf := append(d.scratch[:0], d.data[start:firstSpecial]...)
	defer func() { d.scratch = buf[:0] }()
	i := firstSpecial
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return buf, nil
		case c < 0x20:
			return nil, d.errorf("raw control character 0x%02x in string", c)
		case c == '\\':
			i++
			if i >= len(d.data) {
				return nil, d.errorf("unterminated escape")
			}
			switch e := d.data[i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'u':
				r, n, err := d.unicodeEscape(i - 1)
				if err != nil {
					return nil, err
				}
				buf = utf8.AppendRune(buf, r)
				i += n
			default:
				return nil, d.errorf("invalid escape \\%c", e)
			}
		default:
			buf = append(buf, c)
			i++
		}
	}
	return nil, d.errorf("unterminated string")
}

// unicodeEscape parses \uXXXX (and a following low surrogate if needed)
// starting at the backslash position. It returns the rune and the total
// number of bytes consumed starting at the 'u'.
func (d *Decoder) unicodeEscape(backslash int) (rune, int, error) {
	r, err := d.hex4(backslash + 2)
	if err != nil {
		return 0, 0, err
	}
	if utf16.IsSurrogate(r) {
		lo := backslash + 6
		if lo+6 <= len(d.data) && d.data[lo] == '\\' && d.data[lo+1] == 'u' {
			r2, err := d.hex4(lo + 2)
			if err != nil {
				return 0, 0, err
			}
			if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
				return dec, 11, nil
			}
		}
		return utf8.RuneError, 5, nil
	}
	return r, 5, nil
}

func (d *Decoder) hex4(at int) (rune, error) {
	if at+4 > len(d.data) {
		return 0, d.errorf("truncated \\u escape")
	}
	var r rune
	for _, c := range d.data[at : at+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, d.errorf("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

// inPlaceDigits is the longest digit run an int64 always holds.
const inPlaceDigits = 18

func (d *Decoder) number(keep bool) (item.Item, error) {
	start := d.pos
	i := d.pos
	neg := false
	if i < len(d.data) && d.data[i] == '-' {
		neg = true
		i++
	}
	digits := 0
	var n int64
	for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
		if digits < inPlaceDigits {
			n = n*10 + int64(d.data[i]-'0')
		}
		i++
		digits++
	}
	if digits == 0 {
		return nil, d.errorf("invalid number at offset %d", start)
	}
	hasFrac, hasExp := false, false
	if i < len(d.data) && d.data[i] == '.' {
		hasFrac = true
		i++
		fd := 0
		for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
			fd++
		}
		if fd == 0 {
			return nil, d.errorf("digits required after decimal point at offset %d", i)
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		hasExp = true
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		ed := 0
		for i < len(d.data) && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
			ed++
		}
		if ed == 0 {
			return nil, d.errorf("digits required in exponent at offset %d", i)
		}
	}
	text := d.data[start:i]
	d.pos = i
	switch {
	case hasExp:
		// Only a double can fail past its syntax (out of range), so a
		// skipped one is still converted.
		f, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return nil, d.errorf("invalid double %q", text)
		}
		if !keep {
			return nil, nil
		}
		return item.Double(f), nil
	case !keep:
		return nil, nil
	case hasFrac:
		dec, err := item.DecimalFromString(string(text))
		if err != nil {
			return nil, d.errorf("invalid decimal %q", text)
		}
		return dec, nil
	case digits <= inPlaceDigits:
		if neg {
			n = -n
		}
		return item.Int(n), nil
	default:
		n, err := strconv.ParseInt(string(text), 10, 64)
		if err != nil {
			// Out-of-range integers widen to decimal rather than failing.
			dec, derr := item.DecimalFromString(string(text))
			if derr != nil {
				return nil, d.errorf("invalid integer %q", text)
			}
			return dec, nil
		}
		return item.Int(n), nil
	}
}
