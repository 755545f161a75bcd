package item

import (
	"math/big"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBoolean: "boolean", KindInteger: "integer",
		KindDecimal: "decimal", KindDouble: "double", KindString: "string",
		KindArray: "array", KindObject: "object",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestAtomicSerialization(t *testing.T) {
	dec, err := DecimalFromString("3.140")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		it   Item
		want string
	}{
		{Null{}, "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(0), "0"},
		{Int(-42), "-42"},
		{Int(9223372036854775807), "9223372036854775807"},
		{Double(1.5), "1.5"},
		{Double(0), "0"},
		{Double(-2.25), "-2.25"},
		{dec, "3.14"},
		{Str("hello"), `"hello"`},
		{Str(`quote " and \ slash`), `"quote \" and \\ slash"`},
		{Str("tab\tnewline\n"), `"tab\tnewline\n"`},
		{Str("unicode: héllo→"), `"unicode: héllo→"`},
		{Str("ctrl\x01"), "\"ctrl\\u0001\""},
	}
	for _, c := range cases {
		if got := string(c.it.AppendJSON(nil)); got != c.want {
			t.Errorf("AppendJSON(%#v) = %s, want %s", c.it, got, c.want)
		}
	}
}

func TestDoubleSpecialValues(t *testing.T) {
	inf, err := CastToDouble(Str("Infinity"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(inf.AppendJSON(nil)); got != "Infinity" {
		t.Errorf("Infinity serializes as %s", got)
	}
	nan, err := CastToDouble(Str("NaN"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(nan.AppendJSON(nil)); got != "NaN" {
		t.Errorf("NaN serializes as %s", got)
	}
}

func TestObjectLookup(t *testing.T) {
	o := NewObject([]string{"a", "b", "c"}, []Item{Int(1), Str("x"), Bool(true)})
	if v, ok := o.Get("b"); !ok || v.(Str) != "x" {
		t.Errorf(`Get("b") = %v, %v`, v, ok)
	}
	if _, ok := o.Get("missing"); ok {
		t.Error("Get on absent key returned ok")
	}
	if o.Len() != 3 {
		t.Errorf("Len = %d", o.Len())
	}
}

func TestObjectLargeUsesIndex(t *testing.T) {
	n := 50
	keys := make([]string, n)
	vals := make([]Item, n)
	for i := range keys {
		keys[i] = strings.Repeat("k", i+1)
		vals[i] = Int(i)
	}
	o := NewObject(keys, vals)
	if o.shape.index == nil {
		t.Fatal("large object did not build an index")
	}
	for i, k := range keys {
		v, ok := o.Get(k)
		if !ok || int64(v.(Int)) != int64(i) {
			t.Fatalf("Get(%q) = %v, %v", k, v, ok)
		}
	}
}

func TestObjectDuplicateKeyFirstWins(t *testing.T) {
	o := NewObject([]string{"k", "k"}, []Item{Int(1), Int(2)})
	if v, _ := o.Get("k"); int64(v.(Int)) != 1 {
		t.Errorf("duplicate key lookup = %v, want first occurrence", v)
	}
	keys := make([]string, 20)
	vals := make([]Item, 20)
	for i := range keys {
		keys[i] = "k"
		vals[i] = Int(int64(i))
	}
	big := NewObject(keys, vals)
	if v, _ := big.Get("k"); int64(v.(Int)) != 0 {
		t.Errorf("indexed duplicate key lookup = %v, want first occurrence", v)
	}
}

func TestObjectSerialization(t *testing.T) {
	o := NewObject([]string{"b", "a"}, []Item{Int(2), Int(1)})
	want := `{"b" : 2, "a" : 1}`
	if got := o.String(); got != want {
		t.Errorf("object serializes as %s, want %s (insertion order)", got, want)
	}
}

func TestArray(t *testing.T) {
	a := NewArray([]Item{Int(1), Str("two"), NewArray(nil)})
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	want := `[1, "two", []]`
	if got := a.String(); got != want {
		t.Errorf("array serializes as %s, want %s", got, want)
	}
}

func TestObjectFromMapDeterministic(t *testing.T) {
	m := map[string]Item{"z": Int(1), "a": Int(2), "m": Int(3)}
	o1, o2 := ObjectFromMap(m), ObjectFromMap(m)
	if o1.String() != o2.String() {
		t.Error("ObjectFromMap is not deterministic")
	}
	if o1.Keys()[0] != "a" || o1.Keys()[2] != "z" {
		t.Errorf("keys not sorted: %v", o1.Keys())
	}
}

func TestSerializeSequence(t *testing.T) {
	got := SerializeSequence([]Item{Int(1), Str("a")})
	if got != "1\n\"a\"" {
		t.Errorf("SerializeSequence = %q", got)
	}
	if SerializeSequence(nil) != "" {
		t.Error("empty sequence should serialize to empty string")
	}
}

func TestDecimalNormalization(t *testing.T) {
	d := NewDecimal(big.NewRat(10, 4))
	if got := d.String(); got != "2.5" {
		t.Errorf("10/4 serializes as %s", got)
	}
	whole := NewDecimal(big.NewRat(8, 2))
	if got := whole.String(); got != "4" {
		t.Errorf("8/2 serializes as %s", got)
	}
}

func TestIsAtomicIsNumeric(t *testing.T) {
	if !IsAtomic(Int(1)) || !IsAtomic(Null{}) || IsAtomic(NewArray(nil)) {
		t.Error("IsAtomic misclassifies")
	}
	if !IsNumeric(Int(1)) || !IsNumeric(Double(1)) || IsNumeric(Str("1")) {
		t.Error("IsNumeric misclassifies")
	}
}
