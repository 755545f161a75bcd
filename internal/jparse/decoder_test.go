package jparse

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rumble/internal/item"
)

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameItem fails the test unless got serializes byte-identically to want
// (which pins key order and every duplicate key) and every object inside
// answers Get the same way (first occurrence wins).
func sameItem(t *testing.T, what string, got, want item.Item) {
	t.Helper()
	g, w := got.AppendJSON(nil), want.AppendJSON(nil)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: decoded %s, oracle %s", what, g, w)
	}
	sameLookups(t, what, got, want)
}

func sameLookups(t *testing.T, what string, got, want item.Item) {
	t.Helper()
	switch w := want.(type) {
	case *item.Object:
		g := got.(*item.Object)
		for i, k := range w.Keys() {
			wv, _ := w.Get(k)
			gv, ok := g.Get(k)
			if !ok || !bytes.Equal(gv.AppendJSON(nil), wv.AppendJSON(nil)) {
				t.Fatalf("%s: Get(%q) = %v, oracle %v", what, k, gv, wv)
			}
			if lv := g.Lookup(k); len(lv) != 1 || cap(lv) != 1 || lv[0] != gv {
				t.Fatalf("%s: Lookup(%q) is not a clipped view of Get's value", what, k)
			}
			sameLookups(t, what, g.ValueAt(i), w.ValueAt(i))
		}
		if g.Shape().HasDupKeys() != oracleHasDup(w.Keys()) {
			t.Fatalf("%s: HasDupKeys = %v on keys %q", what, g.Shape().HasDupKeys(), w.Keys())
		}
	case *item.Array:
		g := got.(*item.Array)
		for i, m := range w.Members() {
			sameLookups(t, what, g.Member(i), m)
		}
	}
}

func oracleHasDup(keys []string) bool {
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// project is oracle-then-filter: what a projected decode of a value the
// oracle decoded to it must equal.
func project(it item.Item, fields []string) item.Item {
	o, ok := it.(*item.Object)
	if !ok {
		return it
	}
	var keys []string
	var values []item.Item
	for i, k := range o.Keys() {
		for _, f := range fields {
			if f == k {
				keys = append(keys, k)
				values = append(values, o.ValueAt(i))
				break
			}
		}
	}
	return item.NewObject(keys, values)
}

// warm decoders live across fuzz inputs, so their tries fill up, pass the
// node bound and keep decoding: every input is checked against a fresh
// decoder and against these.
var (
	warmFull = NewDecoder()
	warmProj = map[string]*Decoder{}
)

func checkAgainstOracle(t *testing.T, data []byte, fields []string) {
	t.Helper()
	want, wantErr := oracleParse(data)
	for name, d := range map[string]*Decoder{"fresh": NewDecoder(), "warm": warmFull} {
		got, err := d.Decode(data)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s full decode of %q: error %q, oracle %q", name, data, errText(err), errText(wantErr))
		}
		if err == nil {
			sameItem(t, name+" full decode", got, want)
		}
	}
	key := fmt.Sprintf("%q", fields)
	if warmProj[key] == nil {
		if len(warmProj) > 64 {
			warmProj = map[string]*Decoder{}
		}
		warmProj[key] = NewProjectingDecoder(fields)
	}
	for name, d := range map[string]*Decoder{"fresh": NewProjectingDecoder(fields), "warm": warmProj[key]} {
		got, err := d.Decode(data)
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s decode of %q projected on %q: error %q, oracle %q", name, data, fields, errText(err), errText(wantErr))
		}
		if err == nil {
			sameItem(t, fmt.Sprintf("%s decode projected on %q", name, fields), got, project(want, fields))
		}
	}
}

func deep(open, close string, n int) string {
	return strings.Repeat(open, n) + strings.Repeat(close, n)
}

func wideObject(n int) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"k%d":%d`, i, i)
	}
	b.WriteByte('}')
	return b.String()
}

var oracleSeeds = []struct{ doc, fields string }{
	{`{"guess": "French", "target": "Danish", "country": "AU", "choices": ["a", "b"], "sample": "00ff", "date": "2013-08-19"}`, "guess,target"},
	{`{"a":1,"b":{"c":[1,2.5,3e2,"x"],"d":null},"e":true,"f":false}`, "b,f"},
	{`{"a":1,"x":2,"a":3}`, "a"},                       // duplicate of a read key after an unread one
	{`{"x":{"a":1,"a":2},"a":{"x":1,"x":2}}`, "a"},     // duplicates below the projected level
	{`{"key":1,"key":2,"k\ney":3,"😀":4}`, "key,k\ney"}, // escaped keys, one equal to a plain one
	{`{"a":1,"skip":"bad \x01 control","b":2}`, "a,b"}, // malformed value in an unread field
	{`{"a":1,"skip":{"deep":[1,2,}],"b":2}`, "a"},      // malformed nesting in an unread field
	{`{"a":1,"skip":1e999,"b":2}`, "a"},                // out-of-range double in an unread field
	{`{"a":1,"skip":"\uZZZZ"}`, "a"},                   // bad escape in an unread field
	{`{"a":1,"skip":tru}`, "a"},                        // bad literal in an unread field
	{`{"a":1,"skip":-}`, "a"},                          // bad number in an unread field
	{`{"a":1 "b":2}`, "b"},                             // missing comma
	{`{"a":1,"b":2} x`, "a"},                           // trailing content
	{`{"a":123456789012345678,"b":1234567890123456789,"c":12345678901234567890,"d":-9223372036854775808,"e":-0,"f":007}`, "b,c,d"},
	{`[{"a":1},{"a":2,"b":3},{"b":3,"a":2}]`, "a"}, // top-level non-object decodes whole
	{`"just a string"`, "a"},
	{``, "a"},
	{`{}`, ""},
	{`{"a":{}}`, "zzz"},
	{wideObject(9), "k0,k8"}, // one past the linear-lookup limit
	{wideObject(40), "k7,k39,k3"},
	{wideObject(maxShapeNodes + 50), "k1,k4099,k4140"}, // leaves the trie mid-object
	{deep("[", "]", maxDepth+1), ""},                   // deepest legal nesting
	{deep("[", "]", maxDepth+2), ""},                   // one too deep
	{deep(`{"a":`, "}", maxDepth) + "1" /* malformed: value after the closers */, "a"},
	{strings.Repeat(`{"a":`, maxDepth+1) + "1" + strings.Repeat("}", maxDepth+1), "a"},
	{strings.Repeat(`{"a":`, maxDepth+2) + "1" + strings.Repeat("}", maxDepth+2), "b"}, // too deep inside a skipped member
}

// FuzzDecoderMatchesOracle checks the decoder against the parser it
// replaced: a full decode agrees on the serialized bytes (key order, every
// duplicate key), on Get (first duplicate wins) and on the error text; a
// projected decode equals the oracle's result filtered to the fields, and
// fails with the oracle's error even when the bad bytes sit in a skipped
// member. Fresh decoders and long-lived ones (whose tries fill past the node
// bound) must agree.
func FuzzDecoderMatchesOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add([]byte(s.doc), s.fields)
	}
	// Each byte the word scan stops at, at every offset of the first word
	// and a half, in a kept value, a skipped value and a key.
	for off := 0; off <= 16; off++ {
		for _, c := range []string{`"`, `\n`, "\x01", "\xff"} {
			s := strings.Repeat("x", off) + c + strings.Repeat("y", 9)
			f.Add([]byte(`{"k":"`+s+`","skip":"`+s+`","`+s+`":1}`), "k")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, fields string) {
		var fs []string
		if fields != "" {
			fs = strings.Split(fields, ",")
		}
		if len(fs) > 16 {
			fs = fs[:16]
		}
		checkAgainstOracle(t, data, fs)
	})
}

// TestTrieBoundDegrades feeds one decoder more distinct shapes than the
// trie holds: every object still decodes like the oracle, shapes met before
// the bound stay shared, and shapes met after it are private.
func TestTrieBoundDegrades(t *testing.T) {
	d := NewDecoder()
	early := []byte(`{"early":1,"shape":2}`)
	first, err := d.Decode(early)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxShapeNodes+100; i++ {
		doc := []byte(fmt.Sprintf(`{"k%d":%d,"tail":true}`, i, i))
		got, err := d.Decode(doc)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		want, _ := oracleParse(doc)
		sameItem(t, "past the bound", got, want)
	}
	if d.nodes != maxShapeNodes {
		t.Fatalf("trie holds %d nodes, want the bound %d", d.nodes, maxShapeNodes)
	}
	again, _ := d.Decode(early)
	if again.(*item.Object).Shape() != first.(*item.Object).Shape() {
		t.Fatal("a shape interned before the bound is no longer shared")
	}
	late := []byte(`{"never":1,"seen":2}`)
	a, _ := d.Decode(late)
	b, _ := d.Decode(late)
	if a.(*item.Object).Shape() == b.(*item.Object).Shape() {
		t.Fatal("a shape past the bound was interned")
	}
	sameItem(t, "late shape", a, b)
}

func TestShapesAreShared(t *testing.T) {
	d := NewProjectingDecoder([]string{"b", "a"})
	x, _ := d.Decode([]byte(`{"a":1,"skip":[1,2],"b":{"n":1,"m":2}}`))
	y, _ := d.Decode([]byte(`{"a":"one","skip":null,"b":{"n":3,"m":4}}`))
	xo, yo := x.(*item.Object), y.(*item.Object)
	if xo.Shape() != yo.Shape() {
		t.Fatal("same key sequence, different top-level shapes")
	}
	if got := strings.Join(xo.Keys(), ","); got != "a,b" {
		t.Fatalf("projected keys %q, want a,b in member order", got)
	}
	xb, _ := xo.Get("b")
	yb, _ := yo.Get("b")
	if xb.(*item.Object).Shape() != yb.(*item.Object).Shape() {
		t.Fatal("same key sequence, different nested shapes")
	}
	// The same keys decoded whole must not reuse the projected layout.
	z, _ := d.Decode([]byte(`[{"a":1,"skip":[1,2],"b":2}]`))
	if got := strings.Join(z.(*item.Array).Member(0).(*item.Object).Keys(), ","); got != "a,skip,b" {
		t.Fatalf("nested object keys %q, want all three", got)
	}
}

// confusionDoc is a confusion-dataset record with the median four choices.
const confusionDoc = `{"guess": "French", "target": "Danish", "country": "AU", "choices": ["Danish", "French", "Maltese", "Welsh"], "sample": "92f9e1c17e6df988780527341fdb471d", "date": "2013-08-19"}`

// redditDoc is a Reddit comment whose long body a projection on subreddit
// and score skips.
const redditDoc = `{"id": "t1_5x1qz9", "author": "user48213", "subreddit": "programming", "body": "the quick brown fox jumps over the lazy dog data query json nested heterogeneous spark scale comment thread upvote karma repost original source the quick brown fox jumps", "score": 1204, "created_utc": 1366213402, "edited": false, "score_hidden": true, "controversiality": 0}`

// TestDecodeAllocCeilings pins what the shape trie, projection and string
// cache buy on a warm decoder. A full confusion record costs its values
// (the array, its members, the object and its value slice) and nothing for
// keys, an index or its strings, each of which the decoder has boxed
// before; projected on two of its six fields it costs the object and its
// value slice.
func TestDecodeAllocCeilings(t *testing.T) {
	doc := []byte(confusionDoc)
	full := NewDecoder()
	if n := testing.AllocsPerRun(200, func() { full.Decode(doc) }); n > 4 {
		t.Errorf("full decode: %.0f allocs per object, ceiling 4", n)
	}
	proj := NewProjectingDecoder([]string{"guess", "target"})
	if n := testing.AllocsPerRun(200, func() { proj.Decode(doc) }); n > 2 {
		t.Errorf("decode projected on 2 of 6 fields: %.0f allocs per object, ceiling 2", n)
	}
	none := NewProjectingDecoder(nil)
	if n := testing.AllocsPerRun(200, func() { none.Decode(doc) }); n > 1 {
		t.Errorf("decode projected on no field: %.0f allocs per object, ceiling 1", n)
	}
}

func TestEscapedStringSizedToItself(t *testing.T) {
	// One short escaped string at the head of a long line: the old slow path
	// sized its buffer to the rest of the line.
	doc := []byte(`{"a":"x\ny","pad":"` + strings.Repeat("p", 64<<10) + `"}`)
	d := NewProjectingDecoder([]string{"a"})
	d.Decode(doc)
	var got item.Item
	n := testing.AllocsPerRun(50, func() { got, _ = d.Decode(doc) })
	if v, _ := got.(*item.Object).Get("a"); v != item.Str("x\ny") {
		t.Fatalf("decoded %v", got)
	}
	if n > 4 {
		t.Errorf("%.0f allocs, ceiling 4", n)
	}
	if cap(d.scratch) > 1024 {
		t.Errorf("scratch grew to %d bytes for a 3-byte string", cap(d.scratch))
	}
}

func BenchmarkDecodeConfusion(b *testing.B) {
	for _, c := range []struct {
		name string
		doc  string
		d    *Decoder
	}{
		{"full", confusionDoc, NewDecoder()},
		{"two-of-six", confusionDoc, NewProjectingDecoder([]string{"guess", "target"})},
		{"reddit-skip-body", redditDoc, NewProjectingDecoder([]string{"subreddit", "score"})},
	} {
		doc := []byte(c.doc)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if _, err := c.d.Decode(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// bytewiseStrBytes is strBytes as it was before the word scan: the
// reference FuzzStrBytesMatchesBytewise holds it to.
func (d *Decoder) bytewiseStrBytes() ([]byte, error) {
	d.pos++ // opening quote
	start := d.pos
	for i := d.pos; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i], nil
		}
		if c == '\\' || c < 0x20 {
			return d.strBytesSlow(start, i)
		}
	}
	return nil, d.errorf("unterminated string")
}

// FuzzStrBytesMatchesBytewise holds the word-at-a-time string scan to the
// bytewise one: from every start offset of the input (so at every
// alignment of the eight-byte loads and every length of the bytewise
// tail), special finds the first quote, backslash or control byte the
// bytewise loop finds, and strBytes returns the same bytes, error text and
// end offset.
func FuzzStrBytesMatchesBytewise(f *testing.F) {
	f.Add([]byte(`"plain" and "esc\"aped\\" then "é😀"`))
	f.Add([]byte("\"ctl\x01\" \"\xff\xfe non-UTF-8\" \"unterminated"))
	f.Add([]byte(strings.Repeat(`abcdefg"`, 4) + `\\\\\\\\` + "\x1f\x20\x7f\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		word, byteWise := NewDecoder(), NewDecoder()
		for start := 0; start < len(data); start++ {
			want := len(data)
			for i := start; i < len(data); i++ {
				if c := data[i]; c == '"' || c == '\\' || c < 0x20 {
					want = i
					break
				}
			}
			if got := special(data, start); got != want {
				t.Fatalf("special(%q, %d) = %d, bytewise %d", data, start, got, want)
			}
			word.data, word.pos = data, start
			byteWise.data, byteWise.pos = data, start
			got, err := word.strBytes()
			ref, refErr := byteWise.bytewiseStrBytes()
			if !bytes.Equal(got, ref) || errText(err) != errText(refErr) || (err == nil && word.pos != byteWise.pos) {
				t.Fatalf("strBytes of %q from %d: %q, %q, end %d; bytewise %q, %q, end %d",
					data, start, got, errText(err), word.pos, ref, errText(refErr), byteWise.pos)
			}
		}
	})
}

// TestStringCacheOverflow decodes more distinct short strings than the
// cache has slots, among them strings that share a slot, taking turns so
// that every slot is overwritten again and again, plus strings on either
// side of the length bound: every value decodes to itself, and a string
// that stays in its slot is boxed once.
func TestStringCacheOverflow(t *testing.T) {
	d := NewProjectingDecoder([]string{"v"})
	slotOf := func(s string) uint32 { return strSlot([]byte(s)) }
	var values []string
	for i := 0; i < 3*strSlots; i++ {
		values = append(values, fmt.Sprintf("v%d", i))
	}
	// Two more strings in the slot of values[0].
	for i, n := 0, 0; n < 2; i++ {
		if s := fmt.Sprintf("c%d", i); slotOf(s) == slotOf(values[0]) {
			values, n = append(values, s), n+1
		}
	}
	values = append(values, strings.Repeat("m", strMaxLen), strings.Repeat("l", strMaxLen+1), "", `esc"aped`)
	for round := 0; round < 3; round++ {
		for i, v := range values {
			if round == 1 {
				v = values[len(values)-1-i]
			}
			doc := append(append([]byte(`{"skip":"x","v":`), item.Str(v).AppendJSON(nil)...), '}')
			got, err := d.Decode(doc)
			if err != nil {
				t.Fatal(err)
			}
			if g, _ := got.(*item.Object).Get("v"); g != item.Str(v) {
				t.Fatalf("round %d: %s decoded to %v", round, doc, g)
			}
		}
	}
	doc := []byte(`{"v":"steady"}`)
	d.Decode(doc)
	if n := testing.AllocsPerRun(100, func() { d.Decode(doc) }); n > 2 {
		t.Errorf("a cached string: %.0f allocs per object, ceiling 2 (object and values)", n)
	}
}

// TestDecodedValuesDoNotAliasInput overwrites the input of every decode,
// whole and projected, fresh and warm: keys, short (cached) and long
// strings, escaped ones, numbers and the keys of objects off the shape
// trie must serialize as they did before.
func TestDecodedValuesDoNotAliasInput(t *testing.T) {
	docs := []string{
		confusionDoc,
		redditDoc,
		`{"esc\"key":"a\nb","n":12345678901234567890,"d":1.25,"e":3e2,"s":["x","` + strings.Repeat("y", 40) + `"]}`,
		wideObject(maxShapeNodes + 10), // leaves the trie: its keys are copied per object
	}
	for _, d := range []*Decoder{NewDecoder(), NewProjectingDecoder([]string{"guess", "subreddit", "esc\"key", "s", "k4100"})} {
		for pass := 0; pass < 2; pass++ {
			for _, doc := range docs {
				buf := []byte(doc)
				got, err := d.Decode(buf)
				if err != nil {
					t.Fatal(err)
				}
				before := got.AppendJSON(nil)
				for i := range buf {
					buf[i] = '#'
				}
				if after := got.AppendJSON(nil); !bytes.Equal(before, after) {
					t.Fatalf("pass %d: decoded value changed with its input:\n%s\n%s", pass, before, after)
				}
			}
		}
	}
}
