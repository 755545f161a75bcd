package rumble

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rumble/internal/item"
)

// vectorConformanceJSON is the JSON-Lines text of every text-expressible
// conformance collection: vectorConformanceData registers it in-memory,
// and the segment conformance test writes it to storage files so the same
// query corpus runs file-backed (raw scan) and segment-backed.
func vectorConformanceJSON() map[string][]string {
	m := map[string][]string{
		"games": {
			`{"guess":"fr","target":"fr","score":3,"country":"CH"}`,
			`{"guess":"de","target":"fr","score":5,"country":"CH"}`,
			`{"guess":"fr","target":"fr","score":7,"country":"FR"}`,
			`{"guess":"en","target":"en","score":1,"country":"US"}`,
			`{"guess":"en","target":"en","score":2,"country":"US"}`,
			`{"guess":"it","target":"es","score":9,"country":"IT"}`,
		},
		"messy": {
			`{"k":1,"v":10}`,
			`{"k":1.0,"v":20}`,
			`{"k":null,"v":30}`,
			`{"v":40}`,
			`{"k":"1","v":50}`,
			`{"k":true,"v":60}`,
			`{"k":2,"v":{"nested":1}}`,
		},
		"empty": nil,
		// Join dimensions: duplicate codes (multi-match expansion), a null
		// key (eq null matches null) and an absent key (matches nothing).
		"langs": {
			`{"code":"fr","name":"French"}`,
			`{"code":"en","name":"English"}`,
			`{"code":"fr","name":"Français"}`,
			`{"code":null,"name":"nullish"}`,
			`{"name":"keyless"}`,
		},
		"nulls": {
			`{"k":null,"v":1}`,
			`{"k":1,"v":2}`,
			`{"v":3}`,
		},
		"dims": {
			`{"g":0,"name":"zero"}`,
			`{"g":1,"name":"one"}`,
			`{"g":2,"name":"two"}`,
			`{"g":3,"name":"three"}`,
			`{"g":5,"name":"five"}`,
		},
		"strnum": {
			`{"n":1,"s":5}`,
			`{"n":2,"s":"a"}`,
		},
		// Key layouts a projecting decoder could get wrong: a duplicate of a
		// read key after an unread one, the read key again under read and
		// unread members, a duplicate whole member, a non-object row.
		"dupread": {
			`{"x":1,"a":2,"a":3,"b":{"a":9,"a":10}}`,
			`{"a":1,"x":{"a":5},"b":{"x":1,"a":[1,2]}}`,
			`{"x":{"a":7},"b":5}`,
			`{"b":{"a":1},"a":"s","b":{"a":2}}`,
			`[{"a":1}]`,
		},
	}
	// Multi-morsel collections (5000 rows > 4 × vector.BatchSize), so the
	// parallel backend actually splits the scan: "wide" is clean, "widebad"
	// plants differently-typed poison rows in different morsels — the
	// error of the earliest scan position must win at every worker count.
	wide := make([]string, 5000)
	widebad := make([]string, 5000)
	for i := range wide {
		wide[i] = fmt.Sprintf(`{"g":%d,"v":%d}`, i%7, i)
		switch i {
		case 1500:
			widebad[i] = fmt.Sprintf(`{"g":%d,"v":"poison"}`, i%7)
		case 3500:
			widebad[i] = fmt.Sprintf(`{"g":%d,"v":{"nested":1}}`, i%7)
		default:
			widebad[i] = wide[i]
		}
	}
	m["wide"], m["widebad"] = wide, widebad
	// Doubles whose sum is rounding-sensitive: a large head followed by
	// thousands of small addends spanning several morsels.
	floats := make([]string, 3000)
	floats[0] = `{"g":0,"v":1e16}`
	for i := 1; i < len(floats); i++ {
		floats[i] = fmt.Sprintf(`{"g":%d,"v":0.1}`, i%3)
	}
	m["floats"] = floats
	// String-heavy collection for the dictionary lanes: 1500 rows (more
	// than one morsel) cycling 40 distinct strings, embedded NUL escapes,
	// and a duplicate-key row mid-stream — segment ingest stores that row
	// as an exact-item overflow, so projected decodes must reconcile lane
	// codes with overflow lookups inside one segment. A non-object row and
	// rows with their keys in another order (or one short) ride along: a
	// whole row assembled from lanes must come back as the line was written.
	dict := make([]string, 1500)
	for i := range dict {
		dict[i] = fmt.Sprintf(`{"s":"s%02d","i":%d,"t":"tag\u0000%d"}`, i%40, i, i%5)
	}
	dict[700] = `{"s":"dup","s":"later","i":700,"t":"x"}`
	dict[900] = `[900,"not an object"]`
	dict[1100] = `{"t":"tag\u00000","i":1100,"s":"s20"}`
	dict[1101] = `{"i":1101,"s":"s21"}`
	m["dict"] = dict
	// Non-object rows only: the one shape whose whole rows are legal
	// grouping keys.
	m["atoms"] = []string{`1`, `"a"`, `1.0`, `null`, `"a"`, `2`, `true`, `null`}
	return m
}

// registerEdgeCollection registers the in-memory "edge" collection, whose
// values JSON text cannot express (NaN keys, -0.0, integers beyond 2^53).
func registerEdgeCollection(eng *Engine) {
	mk := func(k item.Item, w int64) Item {
		return item.NewObject([]string{"k", "w"}, []item.Item{k, item.Int(w)})
	}
	eng.RegisterItems("edge", []Item{
		mk(item.Double(math.NaN()), 1),
		mk(item.Double(math.NaN()), 2),
		mk(item.Double(math.Copysign(0, -1)), 3),
		mk(item.Double(0), 4),
		mk(item.Int(1<<53), 5),
		mk(item.Int(1<<53+1), 6),
		mk(item.Double(1<<53), 7),
	})
}

// vectorConformanceData builds the shared test collections, including
// values JSON text cannot express (NaN, -0.0, integers beyond 2^53).
func vectorConformanceData(t *testing.T, eng *Engine) {
	t.Helper()
	for name, lines := range vectorConformanceJSON() {
		if err := eng.RegisterJSON(name, lines); err != nil {
			t.Fatalf("collection %s: %v", name, err)
		}
	}
	registerEdgeCollection(eng)
}

// vectorConformanceCase is one entry of the vector query corpus, shared
// by the vector-vs-tuple and segment-vs-raw conformance tests.
type vectorConformanceCase struct {
	name     string
	query    string
	wantMode string // mode pinned on the vectorizing engines ("" = skip)
	wantErr  bool
	// wantErrIn pins a substring of the deterministic first error
	// (e.g. the type of the lowest-scan-position poison row).
	wantErrIn string
	// floatSum marks double-valued sums: per-morsel partials merged in
	// scan order may differ from the tuple fold in the last units of
	// precision (float addition is not associative), so the tuple
	// comparison is skipped — cross-worker-count identity still holds.
	floatSum bool
}

// vectorConformanceCases is the vector-eligible query corpus over the
// shared conformance collections.
var vectorConformanceCases = []vectorConformanceCase{
	{
		name: "filter project object",
		query: `for $o in collection("games")
				where $o.score ge 3 and $o.guess eq $o.target
				return { "lang": $o.target, "score": $o.score }`,
		wantMode: "Vector",
	},
	{
		name: "group count rewrite",
		query: `for $o in collection("games")
				group by $t := $o.target
				return { "t": $t, "n": count($o) }`,
		wantMode: "Vector",
	},
	{
		name: "group count sum avg min max",
		query: `for $o in collection("games")
				where $o.guess eq $o.target
				group by $t := $o.target
				return { "t": $t, "n": count($o), "sum": sum($o.score),
					"avg": avg($o.score), "min": min($o.score), "max": max($o.score) }`,
		wantMode: "Vector",
	},
	{
		name: "group by two keys",
		query: `for $o in collection("games")
				group by $c := $o.country, $t := $o.target
				return { "c": $c, "t": $t, "n": count($o) }`,
		wantMode: "Vector",
	},
	{
		name: "let and arithmetic",
		query: `for $o in collection("games")
				let $boost := $o.score * 2 + 1
				where $boost gt 5
				return $boost`,
		wantMode: "Vector",
	},
	{
		name: "contains filter",
		query: `for $o in collection("games")
				where contains($o.country, "S")
				return $o.target`,
		wantMode: "Vector",
	},
	{
		name: "mixed numeric null and absent group keys",
		query: `for $o in collection("messy")
				group by $k := $o.k
				return { "k": $k, "n": count($o) }`,
		wantMode: "Vector",
	},
	{
		name: "nan and exact-int group keys",
		query: `for $o in collection("edge")
				group by $k := $o.k
				return { "k": $k, "n": count($o), "w": sum($o.w) }`,
		wantMode: "Vector",
	},
	{
		name: "count of possibly-absent path",
		query: `for $o in collection("messy")
				group by $g := true
				return { "present": count($o.k), "rows": count($o) }`,
		wantMode: "Vector",
	},
	{
		name: "min max over absent fields",
		query: `for $o in collection("games")
				group by $t := $o.target
				return { "t": $t, "m": min($o.missing) }`,
		wantMode: "Vector",
	},
	{
		name: "decimal literal filter",
		query: `for $o in collection("games")
				where $o.score gt 2.5
				return $o.score`,
		wantMode: "Vector",
	},
	{
		name: "array constructor return",
		query: `for $o in collection("games")
				where $o.score lt 4
				return [ $o.target ]`,
		wantMode: "Vector",
	},
	{
		name: "unary minus projection",
		query: `for $o in collection("games")
				return -$o.score`,
		wantMode: "Vector",
	},
	{
		name: "or short-circuit avoids right error",
		query: `for $o in collection("strnum")
				where $o.n eq 1 or $o.s eq "a"
				return $o.n`,
		wantMode: "Vector",
	},
	{
		name: "string number compare errors",
		query: `for $o in collection("strnum")
				where $o.s eq "a"
				return $o.n`,
		wantMode: "Vector",
		wantErr:  true,
	},
	{
		name: "sum over non-numeric errors",
		query: `for $o in collection("messy")
				group by $g := true
				return sum($o.v)`,
		wantMode: "Vector",
		wantErr:  true,
	},
	{
		name: "arithmetic on object errors",
		query: `for $o in collection("messy")
				where $o.k eq 2
				return $o.v + 1`,
		wantMode: "Vector",
		wantErr:  true,
	},
	{
		name: "empty input",
		query: `for $o in collection("empty")
				group by $t := $o.x
				return { "t": $t, "n": count($o) }`,
		wantMode: "Vector",
	},
	{
		name: "external scalar variable",
		query: `declare variable $threshold := 4;
				for $o in collection("games")
				where $o.score ge $threshold
				return $o.score`,
		wantMode: "Vector",
	},
	{
		name: "external sequence variable falls back",
		query: `declare variable $tags := ("a", "b");
				for $o in collection("games")
				where $o.score gt 8
				return $tags`,
		wantMode: "Vector",
	},
	{
		name: "nested eligible pipeline per outer tuple",
		query: `for $min in (2, 6)
				return count(for $o in collection("games")
					where $o.score ge $min
					return $o)`,
	},
	// Grand aggregates: count/sum/avg/min/max over a filtered scan fold
	// inside the columnar backend with mergeable accumulators.
	{
		name: "grand count over filtered scan",
		query: `count(for $o in collection("games")
				where $o.score ge 3 return $o)`,
		wantMode: "Vector",
	},
	{
		name: "grand sum over path",
		query: `sum(for $o in collection("games")
				where $o.guess eq $o.target return $o.score)`,
		wantMode: "Vector",
	},
	{
		name:     "grand avg",
		query:    `avg(for $o in collection("games") return $o.score)`,
		wantMode: "Vector",
	},
	{
		name:     "grand min over absent field is empty",
		query:    `min(for $o in collection("games") return $o.missing)`,
		wantMode: "Vector",
	},
	{
		name:     "grand max",
		query:    `max(for $o in collection("games") return $o.score)`,
		wantMode: "Vector",
	},
	{
		name:     "grand sum over empty scan is zero",
		query:    `sum(for $o in collection("empty") return $o.x)`,
		wantMode: "Vector",
	},
	{
		name:     "grand avg over empty scan is empty",
		query:    `avg(for $o in collection("empty") return $o.x)`,
		wantMode: "Vector",
	},
	{
		name:     "grand sum exact beyond 2^53",
		query:    `sum(for $o in collection("edge") return $o.k)`,
		wantMode: "Vector",
		wantErr:  false,
	},
	{
		name:      "grand sum over non-numeric errors",
		query:     `sum(for $o in collection("messy") return $o.v)`,
		wantMode:  "Vector",
		wantErr:   true,
		wantErrIn: "object",
	},
	{
		name: "grand count over cluster-bound let head",
		query: `count(let $d := collection("games")
				for $x in $d where $x.score ge 3 return $x)`,
		wantMode: "Vector",
	},
	{
		name: "grand count with multi-item external falls back",
		query: `declare variable $tags := ("a", "b");
				count(for $o in collection("games")
					where $o.score gt 0 return $tags)`,
		wantMode: "Vector",
	},
	// Multi-morsel shapes: >4 BatchSize-sized morsels, so parallel
	// workers genuinely race and the in-order merge must hide it.
	{
		name: "multi-morsel filter order",
		query: `for $o in collection("wide")
				where $o.v ge 2500 return $o.v`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel grouped aggregates",
		query: `for $o in collection("wide")
				group by $g := $o.g
				return { "g": $g, "n": count($o), "s": sum($o.v),
					"lo": min($o.v), "hi": max($o.v) }`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel grand aggregate",
		query: `sum(for $o in collection("wide")
				where $o.v ge 10 return $o.v)`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel first error wins grand",
		query: `sum(for $o in collection("widebad")
				return $o.v)`,
		wantMode: "Vector",
		wantErr:  true,
		// Row 1500 (a string) precedes row 3500 (an object): the
		// earliest scan position's error must surface at every worker
		// count, never the object one a faster worker found first.
		wantErrIn: "string",
	},
	{
		name: "multi-morsel first error wins grouped",
		query: `for $o in collection("widebad")
				group by $g := $o.g
				return { "g": $g, "s": sum($o.v) }`,
		wantMode:  "Vector",
		wantErr:   true,
		wantErrIn: "string",
	},
	{
		name: "float sum stable across worker counts",
		query: `sum(for $o in collection("floats")
				return $o.v)`,
		wantMode: "Vector",
		floatSum: true,
	},
	{
		name: "grouped float sum stable across worker counts",
		query: `for $o in collection("floats")
				group by $g := $o.g
				return { "g": $g, "s": sum($o.v), "a": avg($o.v) }`,
		wantMode: "Vector",
		floatSum: true,
	},
	// Columnar order-by: per-morsel sorted runs k-way merged in morsel
	// index order must reproduce the tuple backend's stable sort exactly.
	{
		name: "order by descending",
		query: `for $o in collection("games")
				order by $o.score descending
				return $o.score`,
		wantMode: "Vector",
	},
	{
		name: "order by two keys with ties",
		query: `for $o in collection("games")
				order by $o.target, $o.score descending
				return { "t": $o.target, "s": $o.score }`,
		wantMode: "Vector",
	},
	{
		name: "order by empty greatest over absent keys",
		query: `for $o in collection("nulls")
				order by $o.k empty greatest
				return $o.v`,
		wantMode: "Vector",
	},
	{
		name: "order by nan negative zero and beyond 2^53",
		query: `for $o in collection("edge")
				order by $o.k
				return $o.w`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel order by with massive ties",
		query: `for $o in collection("wide")
				order by $o.g descending
				return $o.v`,
		wantMode: "Vector",
	},
	{
		name: "order by after filter and let",
		query: `for $o in collection("wide")
				let $d := $o.v * 2
				where $o.g ge 3
				order by $d descending
				return $d`,
		wantMode: "Vector",
	},
	{
		name: "order by string number mix errors",
		query: `for $o in collection("strnum")
				order by $o.s
				return $o.n`,
		wantMode:  "Vector",
		wantErr:   true,
		wantErrIn: "mixes strings and numbers",
	},
	{
		name: "order by non-atomic key errors",
		query: `for $o in collection("widebad")
				order by $o.v
				return $o.g`,
		wantMode: "Vector",
		wantErr:  true,
		// Row 3500's object key fails the per-row atomicity check; the
		// string at row 1500 only feeds the end-of-stream mix check,
		// which an earlier hard error preempts.
		wantErrIn: "non-atomic",
	},
	// Fused top-k: the count + where bound folds into the sort, so only
	// k rows survive per morsel and per merge.
	{
		name: "fused top-k descending",
		query: `for $o in collection("wide")
				order by $o.v descending
				count $rank where $rank le 10
				return $o.v`,
		wantMode: "Vector",
	},
	{
		name: "fused top-k lt bound with ties",
		query: `for $o in collection("wide")
				order by $o.g
				count $rank where $rank lt 5
				return $o.v`,
		wantMode: "Vector",
	},
	{
		name: "fused top-k larger than input",
		query: `for $o in collection("games")
				order by $o.score
				count $rank where $rank le 100
				return $o.score`,
		wantMode: "Vector",
	},
	// Positional clauses derive from morsel scan indices.
	{
		name: "positional variable",
		query: `for $o at $i in collection("games")
				return $i * $o.score`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel positional filter",
		query: `for $o at $i in collection("wide")
				where $i le 3000
				return $i + $o.v`,
		wantMode: "Vector",
	},
	{
		name: "count clause before filter",
		query: `for $o in collection("wide")
				count $c
				where $c lt 2500
				return $c * 2`,
		wantMode: "Vector",
	},
	// Hash equi-joins: eq-faithful against the tuple backend's nested
	// loop, including null-match, empty-drop, expansion order and the
	// cross-side type conflict error.
	{
		name: "hash equi-join multi-match",
		query: `for $o in collection("games")
				for $l in collection("langs")
				where $o.target eq $l.code
				return { "g": $o.guess, "t": $o.target, "name": $l.name }`,
		wantMode: "Vector",
	},
	{
		name: "join null matches null and absent drops",
		query: `for $a in collection("nulls")
				for $b in collection("nulls")
				where $a.k eq $b.k
				return { "l": $a.v, "r": $b.v }`,
		wantMode: "Vector",
	},
	{
		name: "join with residual predicate",
		query: `for $o in collection("games")
				for $l in collection("langs")
				where $o.target eq $l.code and $o.score ge 3
				return { "s": $o.score, "name": $l.name }`,
		wantMode: "Vector",
	},
	{
		name: "multi-morsel join",
		query: `for $o in collection("wide")
				for $d in collection("dims")
				where $o.g eq $d.g
				return { "v": $o.v, "name": $d.name }`,
		wantMode: "Vector",
	},
	{
		name: "join cross-type keys error",
		query: `for $a in collection("messy")
				for $b in collection("messy")
				where $a.k eq $b.k
				return { "l": $a.v, "r": $b.v }`,
		wantMode:  "Vector",
		wantErr:   true,
		wantErrIn: "non-comparable",
	},
	{
		name: "join then order by",
		query: `for $o in collection("wide")
				for $d in collection("dims")
				where $o.g eq $d.g
				order by $o.v descending
				count $rank where $rank le 7
				return { "v": $o.v, "name": $d.name }`,
		wantMode: "Vector",
	},
	{
		name: "join then group",
		query: `for $o in collection("wide")
				for $d in collection("dims")
				where $o.g eq $d.g
				group by $name := $d.name
				return { "name": $name, "n": count($o), "s": sum($o.v) }`,
		wantMode: "Vector",
	},
	{
		name: "grand count over join",
		query: `count(for $o in collection("wide")
				for $d in collection("dims")
				where $o.g eq $d.g
				return $o)`,
		wantMode: "Vector",
	},
	// Existence tests fold as early-exit grand counts.
	{
		name:     "exists true",
		query:    `exists(for $o in collection("wide") where $o.v ge 4999 return $o)`,
		wantMode: "Vector",
	},
	{
		name:     "exists false",
		query:    `exists(for $o in collection("games") where $o.score gt 100 return $o)`,
		wantMode: "Vector",
	},
	{
		name:     "empty over filtered scan",
		query:    `empty(for $o in collection("wide") where $o.v ge 10 return $o)`,
		wantMode: "Vector",
	},
	{
		name:     "count eq zero fuses to existence",
		query:    `count(for $o in collection("wide") where $o.v ge 10 return $o) eq 0`,
		wantMode: "Vector",
	},
	{
		name:     "zero eq count flipped literal",
		query:    `0 eq count(for $o in collection("games") where $o.score gt 100 return $o)`,
		wantMode: "Vector",
	},
	{
		name:     "exists over empty scan",
		query:    `exists(for $o in collection("empty") return $o)`,
		wantMode: "Vector",
	},
	// Dictionary-lane corpus: string predicates and grouped counts over
	// "dict" run lane-native on a segment-backed engine (projected columns,
	// codes compared against a translated literal), with the dup-key
	// overflow row and NUL-embedded strings in the middle of the data.
	{
		name: "dict string equality projection",
		query: `for $o in collection("dict")
				where $o.s eq "s07"
				return { "s": $o.s, "i": $o.i }`,
		wantMode: "Vector",
	},
	{
		name: "dict string range scan",
		query: `for $o in collection("dict")
				where $o.s lt "s05" and $o.t ge "tag"
				return $o.i`,
		wantMode: "Vector",
	},
	{
		name: "dict grouped count by string key",
		query: `for $o in collection("dict")
				group by $s := $o.s
				return { "s": $s, "n": count($o), "hi": max($o.i) }`,
		wantMode: "Vector",
	},
	{
		name: "dict overflow row fields",
		query: `for $o in collection("dict")
				where $o.i ge 695 and $o.i le 705
				return { "s": $o.s, "t": $o.t }`,
		wantMode: "Vector",
	},
	{
		name: "dict string order by",
		query: `for $o in collection("dict")
				where $o.i lt 80
				order by $o.s descending, $o.i
				return { "s": $o.s, "i": $o.i }`,
		wantMode: "Vector",
	},
	// Late materialization: the scan variable consumed whole. A
	// segment-backed engine filters, joins and sorts on lanes and assembles
	// row items only for what is left when the first operator reads $o —
	// and must hand back the dup-key row (700), the non-object row (900)
	// and the reordered and short rows (1100, 1101) exactly as the raw scan
	// parses them.
	{
		name: "whole row after selective filter",
		query: `for $o in collection("dict")
				where $o.i ge 698 and $o.i le 702 or $o.i ge 1099 and $o.i le 1102
				return $o`,
		wantMode: "Vector",
	},
	{
		name:     "whole row before any filter",
		query:    `for $o in collection("dict") return $o`,
		wantMode: "Vector",
	},
	{
		name: "whole row read by a filter",
		query: `for $o in collection("dict")
				where $o.i ge 699 and { "r": $o }.r.s eq "dup" or { "r": $o }.r.i ge 1100
				return $o`,
		wantMode: "Vector",
	},
	{
		name:     "whole atomic rows read by a filter",
		query:    `for $o in collection("atoms") where string($o) ne "1" return $o`,
		wantMode: "Vector",
	},
	{
		name: "whole row inside a constructor",
		query: `for $o in collection("dict")
				where $o.s ge "s38" or $o.s eq "dup"
				return { "row": $o, "i": $o.i }`,
		wantMode: "Vector",
	},
	{
		name: "whole rows as group key",
		query: `for $o in collection("atoms")
				let $one := 1
				group by $o
				return { "k": $o, "n": sum($one) }`,
		wantMode: "Vector",
	},
	{
		name: "whole object rows as group key error",
		query: `for $o in collection("dict")
				where $o.i ge 699
				let $one := 1
				group by $o
				return { "k": $o, "n": sum($one) }`,
		wantMode: "Vector",
		wantErr:  true,
	},
	{
		name: "whole row as top-k payload",
		query: `for $o in collection("dict")
				where $o.i ge 1095
				order by $o.i ascending
				count $r where $r le 8
				return $o`,
		wantMode: "Vector",
	},
	{
		name: "whole row as sort payload",
		query: `for $o in collection("dict")
				where $o.i ge 695 and $o.i le 705
				order by $o.t descending, $o.i
				return { "row": $o }`,
		wantMode: "Vector",
	},
	{
		name: "whole rows on both sides of a join",
		query: `for $a in collection("dict")
				for $b in collection("dict")
				where $a.i eq $b.i and $a.i ge 699 and $b.i le 1101 and $a.s ne "s05"
				return { "l": $a, "r": $b }`,
		wantMode: "Vector",
	},
	{
		name: "join reading only fields of the probe side",
		query: `for $a in collection("dict")
				for $b in collection("dict")
				where $a.i eq $b.i and $a.i ge 1099
				return { "s": $a.s, "r": $b }`,
		wantMode: "Vector",
	},
	{
		name:     "whole row from an in-memory collection",
		query:    `for $o in collection("edge") where $o.w ge 3 return $o`,
		wantMode: "Vector",
	},
	{
		name:     "grand count of whole rows",
		query:    `count(for $o in collection("dict") where $o.s lt "s03" or $o.i eq 1101 return $o)`,
		wantMode: "Vector",
	},
	// Shapes first pinned to build the vector iterator on their own.
	{
		name: "filter-project",
		query: `for $o in collection("games")
				where $o.score gt 3 and contains($o.country, "C")
				return { "s": $o.score }`,
		wantMode: "Vector",
	},
	{
		name: "lets-and-arith",
		query: `for $o in collection("games")
				let $b := $o.score * 2
				where $b gt 3
				return [ -$b ]`,
		wantMode: "Vector",
	},
	{
		name: "group-aggregates",
		query: `for $o in collection("games")
				group by $t := $o.target
				return { "t": $t, "n": count($o), "s": sum($o.score),
					"a": avg($o.score), "lo": min($o.score), "hi": max($o.score) }`,
		wantMode: "Vector",
	},
	{
		name: "group-by-existing-var",
		query: `for $o in collection("games")
				let $t := $o.target
				group by $t
				return { "t": $t, "n": count($o) }`,
		wantMode: "Vector",
	},
	{
		name: "free-variable",
		query: `declare variable $min := 3;
				for $o in collection("games") where $o.score ge $min return $o.score`,
		wantMode: "Vector",
	},
	{
		name: "rdd-let-head",
		query: `let $d := collection("games")
				for $x in $d where $x.score ge 5 return $x.guess`,
		wantMode: "Vector",
	},
	{
		name: "scalar-builtins",
		query: `for $o in collection("games")
				where starts-with(upper-case($o.guess), "F") or string-length($o.country) gt 2
				return string($o.target)`,
		wantMode: "Vector",
	},
	{
		name: "let shadows the scan variable",
		query: `for $o in collection("games")
				let $o := { "target": $o.guess, "was": $o.target }
				return $o.target`,
		wantMode: "Vector",
	},
}

// TestVectorLocalConformance asserts that every vector-eligible query
// shape produces identical results with --vectorize on and off, and that
// the vectorized results — emit order, values, and which error surfaces —
// are identical at every morsel worker-pool size (Executors 1, 2 and 8).
// The streamed (local) results must match the tuple pipeline exactly — the
// vector backend mirrors its order — while collected results (which may
// run as DataFrames when vectorization is off) must match as multisets,
// since group output order across the shuffle is implementation-defined.
func TestVectorLocalConformance(t *testing.T) {
	plain := New(Config{Parallelism: 2, Executors: 2})
	vectorConformanceData(t, plain)
	workerCounts := []int{1, 2, 8}
	vecs := make([]*Engine, len(workerCounts))
	for i, w := range workerCounts {
		vecs[i] = New(Config{Parallelism: 2, Executors: w, Vectorize: true})
		vectorConformanceData(t, vecs[i])
	}

	for _, tc := range vectorConformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			ps, perr := plain.Compile(tc.query)
			if perr != nil {
				t.Fatalf("compile (plain): %v", perr)
			}
			pItems, pErr := streamAll(ps)
			var pCollected []Item
			if !tc.wantErr {
				if pErr != nil {
					t.Fatalf("stream (plain): %v", pErr)
				}
				var cerr error
				pCollected, cerr = ps.Collect()
				if cerr != nil {
					t.Fatalf("collect (plain): %v", cerr)
				}
			} else if pErr == nil {
				t.Fatal("want error from the tuple backend, got none")
			}

			// ref is the first worker count's output (or error message);
			// later counts must reproduce it exactly.
			var ref string
			for i, w := range workerCounts {
				vs, verr := vecs[i].Compile(tc.query)
				if verr != nil {
					t.Fatalf("compile (workers=%d): %v", w, verr)
				}
				if tc.wantMode != "" && vs.Mode() != tc.wantMode {
					t.Fatalf("workers=%d: mode = %s, want %s", w, vs.Mode(), tc.wantMode)
				}

				// Streamed evaluation compares the local backends directly:
				// tuple pipeline vs columnar pipeline, order and all.
				vItems, vErr := streamAll(vs)
				if tc.wantErr {
					if vErr == nil {
						t.Fatalf("workers=%d: want error, got none", w)
					}
					if tc.wantErrIn != "" && !strings.Contains(vErr.Error(), tc.wantErrIn) {
						t.Fatalf("workers=%d: error %q does not name %q — a later morsel's error won", w, vErr, tc.wantErrIn)
					}
					if i == 0 {
						ref = vErr.Error()
					} else if vErr.Error() != ref {
						t.Fatalf("error differs across worker counts:\nworkers=%d: %s\nworkers=%d: %s",
							workerCounts[0], ref, w, vErr)
					}
					continue
				}
				if vErr != nil {
					t.Fatalf("workers=%d: stream: %v", w, vErr)
				}
				got := item.SerializeSequence(vItems)
				if tc.floatSum {
					// Rounding may differ from the tuple fold; identity
					// across worker counts is the contract instead.
					if i == 0 {
						ref = got
					} else if got != ref {
						t.Fatalf("float sum differs across worker counts:\nworkers=%d:\n%s\nworkers=%d:\n%s",
							workerCounts[0], ref, w, got)
					}
					continue
				}
				if want := item.SerializeSequence(pItems); got != want {
					t.Fatalf("workers=%d: streamed results differ\nvector:\n%s\ntuple:\n%s", w, got, want)
				}

				// Collected evaluation may route the plain engine through
				// the DataFrame backend; compare as multisets.
				vc, vErr := vs.Collect()
				if vErr != nil {
					t.Fatalf("workers=%d: collect: %v", w, vErr)
				}
				if got, want := sortedLines(vc), sortedLines(pCollected); got != want {
					t.Fatalf("workers=%d: collected results differ\nvector:\n%s\nplain:\n%s", w, got, want)
				}
			}
		})
	}
}

// TestVectorCorpusRunsVector pins that every corpus case annotated Vector
// runs on the vector backend — Metrics().VectorRuns grows — so a plan that
// shows [Vector] is the plan that runs. The only route from a Vector plan
// to the tuple pipeline is a free variable bound to several items; the
// cases that bind one deliberately are exempted by name, and must take it.
func TestVectorCorpusRunsVector(t *testing.T) {
	multiItem := map[string]bool{
		"external sequence variable falls back":           true,
		"grand count with multi-item external falls back": true,
	}
	eng := New(Config{Parallelism: 2, Executors: 2, Vectorize: true})
	vectorConformanceData(t, eng)
	for _, tc := range vectorConformanceCases {
		if tc.wantMode != "Vector" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			st, err := eng.Compile(tc.query)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			before := eng.Metrics().VectorRuns
			_, _ = st.Collect() // the error cases run on the backend too
			ran := eng.Metrics().VectorRuns > before
			switch {
			case multiItem[tc.name] && ran:
				t.Fatal("a multi-item free variable ran on the vector backend; want the tuple fallback")
			case !multiItem[tc.name] && !ran:
				t.Fatalf("mode %s, but no vector run was counted", st.Mode())
			}
		})
	}
}

// TestVectorKernelErrorsAreCatchable pins that an error a vector kernel
// raises is the query's dynamic error: try/catch catches it with the
// description the tuple path gives.
func TestVectorKernelErrorsAreCatchable(t *testing.T) {
	q := `try { for $o in collection("strnum") where $o.s eq "a" return $o.n }
		catch * { $err:description }`
	for _, vectorize := range []bool{false, true} {
		eng := New(Config{Parallelism: 2, Executors: 2, Vectorize: vectorize})
		vectorConformanceData(t, eng)
		if plan, err := eng.Explain(q); err != nil || strings.Contains(plan, "[Vector") != vectorize {
			t.Fatalf("vectorize=%v: plan (err %v):\n%s", vectorize, err, plan)
		}
		got, err := eng.QueryJSON(q)
		if err != nil {
			t.Fatalf("vectorize=%v: %v", vectorize, err)
		}
		if want := `"items are not comparable: integer vs string"`; len(got) != 1 || got[0] != want {
			t.Errorf("vectorize=%v: got %v, want [%s]", vectorize, got, want)
		}
	}
}

// streamAll materializes a statement through the streaming API, which
// always runs the local backend (tuple or vector) of the root plan.
func streamAll(st *Statement) ([]Item, error) {
	var out []Item
	err := st.Stream(func(it Item) error {
		out = append(out, it)
		return nil
	})
	return out, err
}

func sortedLines(items []Item) string {
	lines := make([]string, len(items))
	for i, it := range items {
		lines[i] = string(it.AppendJSON(nil))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestVectorEarlyExitReadsFraction pins the early-exit satellite with
// metrics: an existence test over a 20k-row file-backed scan must stop
// reading as soon as the answer is decided, so the records actually read
// stay far below the collection size — a small prefix in the serial case,
// and at most the bounded in-flight window in the parallel case.
func TestVectorEarlyExitReadsFraction(t *testing.T) {
	const rows = 20000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, `{"v": %d}`+"\n", i)
	}
	path := filepath.Join(t.TempDir(), "big.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workers int
		maxRead int64
	}{
		{workers: 1, maxRead: 2048},  // strictly the first morsel or two
		{workers: 2, maxRead: 12288}, // one merged + the paced in-flight window
	} {
		eng := New(Config{Parallelism: 2, Executors: tc.workers, Vectorize: true})
		for _, query := range []string{
			fmt.Sprintf(`exists(for $o in json-file(%q) where $o.v ge 0 return $o)`, path),
			fmt.Sprintf(`count(for $o in json-file(%q) where $o.v ge 0 return $o) eq 0`, path),
		} {
			st, err := eng.Compile(query)
			if err != nil {
				t.Fatalf("workers=%d: compile: %v", tc.workers, err)
			}
			if st.Mode() != "Vector" {
				t.Fatalf("workers=%d: mode = %s, want Vector", tc.workers, st.Mode())
			}
			eng.ResetMetrics()
			items, err := streamAll(st)
			if err != nil {
				t.Fatalf("workers=%d: %v", tc.workers, err)
			}
			want := "true"
			if strings.Contains(query, "eq 0") {
				want = "false"
			}
			if got := item.SerializeSequence(items); got != want {
				t.Fatalf("workers=%d: result = %s, want %s", tc.workers, got, want)
			}
			if got := eng.Metrics().RecordsRead; got > tc.maxRead {
				t.Errorf("workers=%d: RecordsRead = %d, want <= %d (early exit must stop the scan)",
					tc.workers, got, tc.maxRead)
			}
		}
		// The negative case still scans everything — no rows survive the
		// filter, so the decision needs the whole input.
		st, err := eng.Compile(fmt.Sprintf(
			`exists(for $o in json-file(%q) where $o.v lt 0 return $o)`, path))
		if err != nil {
			t.Fatal(err)
		}
		eng.ResetMetrics()
		items, err := streamAll(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := item.SerializeSequence(items); got != "false" {
			t.Fatalf("negative exists = %s, want false", got)
		}
		if got := eng.Metrics().RecordsRead; got != rows {
			t.Errorf("workers=%d: negative exists RecordsRead = %d, want %d", tc.workers, got, rows)
		}
	}
}

// TestVectorSortJoinMetrics pins the new backend counters: sort and top-k
// runs count per evaluation, and join probe output rows accumulate.
func TestVectorSortJoinMetrics(t *testing.T) {
	eng := New(Config{Parallelism: 2, Executors: 2, Vectorize: true})
	vectorConformanceData(t, eng)
	run := func(q string) {
		t.Helper()
		st, err := eng.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := streamAll(st); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetMetrics()
	run(`for $o in collection("games") order by $o.score return $o.score`)
	if m := eng.Metrics(); m.VectorSortRuns != 1 || m.VectorTopKRuns != 0 {
		t.Errorf("after sort: sort runs = %d, topk runs = %d, want 1, 0", m.VectorSortRuns, m.VectorTopKRuns)
	}
	run(`for $o in collection("games") order by $o.score count $c where $c le 2 return $o.score`)
	if m := eng.Metrics(); m.VectorSortRuns != 1 || m.VectorTopKRuns != 1 {
		t.Errorf("after topk: sort runs = %d, topk runs = %d, want 1, 1", m.VectorSortRuns, m.VectorTopKRuns)
	}
	run(`for $o in collection("games") for $l in collection("langs")
		where $o.target eq $l.code return $l.name`)
	if m := eng.Metrics(); m.VectorJoinRows == 0 {
		t.Error("after join: VectorJoinRows = 0, want > 0")
	}
}
