// Package item implements the JSONiq Data Model (JDM): items and sequences
// of items. An item is an atomic value (null, boolean, integer, decimal,
// double, string), an object mapping strings to items, or an array holding
// an ordered list of items. Sequences are flat ([]Item) and never nest; a
// sequence of one item is canonically identified with that item.
//
// The package also provides the cross-type comparison, arithmetic, grouping
// and ordering semantics that the runtime and the DataFrame layer rely on.
package item

import (
	"fmt"
	"math/big"
	"strings"
)

// Kind discriminates the dynamic type of an Item.
type Kind int

// The item kinds of the core JSONiq data model.
const (
	KindNull Kind = iota
	KindBoolean
	KindInteger
	KindDecimal
	KindDouble
	KindString
	KindArray
	KindObject
)

// String returns the JSONiq name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBoolean:
		return "boolean"
	case KindInteger:
		return "integer"
	case KindDecimal:
		return "decimal"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Item is a single value of the JSONiq data model.
//
// Implementations are immutable once constructed; they may be shared freely
// across goroutines, partitions and closures.
type Item interface {
	// Kind reports the dynamic kind of the item.
	Kind() Kind
	// AppendJSON appends the canonical JSON serialization to dst.
	AppendJSON(dst []byte) []byte
	// String returns the canonical JSON serialization (strings unquoted
	// render via AppendJSON; Str.String returns the raw text).
	String() string
}

// Sequence is a flat sequence of items, the universal value of every JSONiq
// expression. A nil or empty slice is the empty sequence.
type Sequence = []Item

// IsAtomic reports whether it is an atomic item (not an object or array).
func IsAtomic(it Item) bool {
	switch it.Kind() {
	case KindArray, KindObject:
		return false
	default:
		return true
	}
}

// IsNumeric reports whether it is an integer, decimal or double.
func IsNumeric(it Item) bool {
	switch it.Kind() {
	case KindInteger, KindDecimal, KindDouble:
		return true
	default:
		return false
	}
}

// Null is the JSON null item.
type Null struct{}

// Kind implements Item.
func (Null) Kind() Kind { return KindNull }

// AppendJSON implements Item.
func (Null) AppendJSON(dst []byte) []byte { return append(dst, "null"...) }

func (Null) String() string { return "null" }

// Bool is a boolean item.
type Bool bool

// Kind implements Item.
func (Bool) Kind() Kind { return KindBoolean }

// AppendJSON implements Item.
func (b Bool) AppendJSON(dst []byte) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

func (b Bool) String() string { return string(b.AppendJSON(nil)) }

// Int is an integer item (xs:integer restricted to 64 bits).
type Int int64

// Kind implements Item.
func (Int) Kind() Kind { return KindInteger }

// AppendJSON implements Item.
func (i Int) AppendJSON(dst []byte) []byte { return appendInt(dst, int64(i)) }

func (i Int) String() string { return string(i.AppendJSON(nil)) }

// Double is an IEEE-754 double item.
type Double float64

// Kind implements Item.
func (Double) Kind() Kind { return KindDouble }

// AppendJSON implements Item.
func (d Double) AppendJSON(dst []byte) []byte { return appendDouble(dst, float64(d)) }

func (d Double) String() string { return string(d.AppendJSON(nil)) }

// Dec is an arbitrary-precision decimal item backed by a rational number.
// The zero value is not usable; construct with NewDecimal or DecimalFromString.
type Dec struct {
	rat *big.Rat
}

// NewDecimal returns a decimal item holding r. The rational is not copied;
// callers must not mutate it afterwards.
func NewDecimal(r *big.Rat) Dec { return Dec{rat: r} }

// DecimalFromString parses a decimal literal such as "3.14".
func DecimalFromString(s string) (Dec, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Dec{}, fmt.Errorf("invalid decimal literal %q", s)
	}
	return Dec{rat: r}, nil
}

// Kind implements Item.
func (Dec) Kind() Kind { return KindDecimal }

// Rat returns the underlying rational value. Callers must not mutate it.
func (d Dec) Rat() *big.Rat { return d.rat }

// Float64 returns the nearest double value.
func (d Dec) Float64() float64 {
	f, _ := d.rat.Float64()
	return f
}

// AppendJSON implements Item.
func (d Dec) AppendJSON(dst []byte) []byte {
	if d.rat.IsInt() {
		return append(dst, d.rat.Num().String()...)
	}
	s := d.rat.FloatString(12)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return append(dst, s...)
}

func (d Dec) String() string { return string(d.AppendJSON(nil)) }

// Str is a string item.
type Str string

// Kind implements Item.
func (Str) Kind() Kind { return KindString }

// AppendJSON implements Item.
func (s Str) AppendJSON(dst []byte) []byte { return appendQuoted(dst, string(s)) }

func (s Str) String() string { return string(s) }

// Array is an ordered list of items.
type Array struct {
	members []Item
}

// NewArray returns an array item over members. The slice is not copied;
// callers must not mutate it afterwards.
func NewArray(members []Item) *Array { return &Array{members: members} }

// Kind implements Item.
func (*Array) Kind() Kind { return KindArray }

// Len returns the number of members.
func (a *Array) Len() int { return len(a.members) }

// Member returns the i-th member (0-based).
func (a *Array) Member(i int) Item { return a.members[i] }

// Members returns the member slice. Callers must not mutate it.
func (a *Array) Members() []Item { return a.members }

// AppendJSON implements Item.
func (a *Array) AppendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	for i, m := range a.members {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = m.AppendJSON(dst)
	}
	return append(dst, ']')
}

func (a *Array) String() string { return string(a.AppendJSON(nil)) }

// Shape is the immutable key layout of an object: the keys in insertion
// order plus, for wide layouts, the lookup index. Objects with the same key
// sequence share one Shape — the JSON decoder interns them per distinct key
// order and the segment store per row shape — so the key slice and the index
// are built once per shape, never per object. A Shape is safe to share
// across goroutines.
type Shape struct {
	keys  []string
	index map[string]int // first occurrence per key; built when len(keys) > smallObjectLimit
}

const smallObjectLimit = 8

// NewShape returns the shape of the key sequence keys. The slice is not
// copied; callers must not mutate it afterwards.
func NewShape(keys []string) *Shape {
	s := &Shape{}
	s.init(keys)
	return s
}

func (s *Shape) init(keys []string) {
	s.keys = keys
	if len(keys) > smallObjectLimit {
		s.index = make(map[string]int, len(keys))
		for i := len(keys) - 1; i >= 0; i-- {
			s.index[keys[i]] = i
		}
	}
}

// Keys returns the key slice in insertion order. Callers must not mutate it.
func (s *Shape) Keys() []string { return s.keys }

// HasDupKeys reports whether some key occurs more than once. It is O(1) for
// indexed shapes and a scan of at most smallObjectLimit keys otherwise;
// callers that ask per row should ask once per shape instead.
func (s *Shape) HasDupKeys() bool {
	if s.index != nil {
		return len(s.index) < len(s.keys)
	}
	for i := 1; i < len(s.keys); i++ {
		for j := 0; j < i; j++ {
			if s.keys[i] == s.keys[j] {
				return true
			}
		}
	}
	return false
}

// find returns the position of the first occurrence of key, or -1.
func (s *Shape) find(key string) int {
	if s.index != nil {
		if i, ok := s.index[key]; ok {
			return i
		}
		return -1
	}
	for i, k := range s.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Object maps string keys to items, preserving insertion order: a shape
// (possibly shared with other objects) plus this object's own values.
// Lookup is O(1) for wide objects via the shape's index, and a linear scan
// for small ones.
type Object struct {
	shape  *Shape
	values []Item
}

// NewObject returns an object item over parallel key/value slices. The
// slices are not copied; callers must not mutate them afterwards. If a key
// occurs multiple times, the first occurrence wins on lookup.
func NewObject(keys []string, values []Item) *Object {
	// One allocation holds the object and its private shape.
	b := &struct {
		o Object
		s Shape
	}{}
	b.s.init(keys)
	b.o = Object{shape: &b.s, values: values}
	return &b.o
}

// NewObjectOfShape returns an object whose keys are shape's and whose i-th
// value is values[i]. The slice is not copied; callers must not mutate it
// afterwards, and len(values) must equal len(shape.Keys()).
func NewObjectOfShape(shape *Shape, values []Item) *Object {
	return &Object{shape: shape, values: values}
}

// ObjectsOfShape returns n objects of shape carved from one slab, the i-th
// over values[i*k : (i+1)*k] where k is the shape's key count. The value
// slab is not copied; callers must not mutate it afterwards, and
// len(values) must be n*k.
func ObjectsOfShape(shape *Shape, values []Item, n int) []Object {
	k := len(shape.keys)
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{shape: shape, values: values[i*k : (i+1)*k : (i+1)*k]}
	}
	return objs
}

// ObjectFromMap builds an object from a map with keys sorted for
// determinism. Intended for tests and small literals.
func ObjectFromMap(m map[string]Item) *Object {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	values := make([]Item, len(keys))
	for i, k := range keys {
		values[i] = m[k]
	}
	return NewObject(keys, values)
}

// Kind implements Item.
func (*Object) Kind() Kind { return KindObject }

// Len returns the number of keys.
func (o *Object) Len() int { return len(o.values) }

// Keys returns the key slice in insertion order. Callers must not mutate it.
func (o *Object) Keys() []string { return o.shape.keys }

// Shape returns the object's key layout.
func (o *Object) Shape() *Shape { return o.shape }

// ValueAt returns the value of the i-th key.
func (o *Object) ValueAt(i int) Item { return o.values[i] }

// Get returns the value bound to key, if any.
func (o *Object) Get(key string) (Item, bool) {
	if i := o.shape.find(key); i >= 0 {
		return o.values[i], true
	}
	return nil, false
}

// Lookup returns the value bound to key as a sequence: a one-item view of
// the object's own value slice — no allocation — or nil when the key is
// absent. The view's capacity is clipped, so an append never reaches the
// object; callers must not write through it.
func (o *Object) Lookup(key string) []Item {
	if i := o.shape.find(key); i >= 0 {
		return o.values[i : i+1 : i+1]
	}
	return nil
}

// AppendJSON implements Item.
func (o *Object) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i, k := range o.shape.keys {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendQuoted(dst, k)
		dst = append(dst, " : "...)
		dst = o.values[i].AppendJSON(dst)
	}
	return append(dst, '}')
}

func (o *Object) String() string { return string(o.AppendJSON(nil)) }

// SerializeSequence renders a sequence the way the Rumble shell does: one
// item per line.
func SerializeSequence(seq []Item) string {
	var b strings.Builder
	for i, it := range seq {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.Write(it.AppendJSON(nil))
	}
	return b.String()
}

func sortStrings(s []string) {
	// Insertion sort: ObjectFromMap is used for small literals only.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
