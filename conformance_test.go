package rumble

import (
	"strings"
	"testing"
)

// conformanceCase is one spec-behaviour check: a query and either its
// expected serialized output lines (joined with \n) or wantErr, with the
// error's text in errText when that is pinned too.
type conformanceCase struct {
	query   string
	want    string
	wantErr bool
	errText string
}

// conformanceCases is the JSONiq-spec conformance table. It is package
// level so other tests can reuse it as a corpus of known-good queries —
// the plan verifier runs over every entry in TestConformancePlansVerify.
var conformanceCases = map[string]conformanceCase{
	// --- sequences are flat and never nest ---
	"sequence flattening":        {query: `((1, 2), (3, (4, 5)))`, want: "1\n2\n3\n4\n5"},
	"empty in sequence vanishes": {query: `(1, (), 2)`, want: "1\n2"},
	"single item is sequence":    {query: `count(42)`, want: "1"},

	// --- arithmetic typing ---
	"int plus int is int":          {query: `(1 + 2) instance of integer`, want: "true"},
	"int div int is decimal":       {query: `(1 div 2) instance of decimal`, want: "true"},
	"int plus double is double":    {query: `(1 + 0.5e0) instance of double`, want: "true"},
	"int plus decimal is decimal":  {query: `(1 + 0.5) instance of decimal`, want: "true"},
	"idiv result is integer":       {query: `(7 idiv 2) instance of integer`, want: "true"},
	"mod sign follows dividend":    {query: `(-7 mod 2, 7 mod -2)`, want: "-1\n1"},
	"decimal arithmetic exact":     {query: `0.1 + 0.2 eq 0.3`, want: "true"},
	"double arithmetic inexact ok": {query: `0.1e0 + 0.2e0 ne 0.3e0`, want: "true"},

	// --- comparison semantics ---
	"value comparison empty propagates": {query: `count(() eq 1)`, want: "0"},
	"general comparison existential":    {query: `(1, 2, 3) = 2`, want: "true"},
	"general comparison all fail":       {query: `(1, 2, 3) = 9`, want: "false"},
	"general comparison empty is false": {query: `() = ()`, want: "false"},
	"value comparison two items errors": {query: `(1, 2) eq 1`, wantErr: true},
	"cross numeric equality":            {query: `1 eq 1.0`, want: "true"},
	"string number not comparable":      {query: `"1" eq 1`, wantErr: true},
	"general string number no match":    {query: `("1", "2") = 1`, want: "false"},

	// --- comparisons and and/or as conditions ---
	"where over an empty operand is false": {query: `count(for $o in ({"a": 1}, {"b": 2}, {"a": 2}) where $o.a eq 1 or not($o.a eq 2) return $o)`, want: "2"},
	"where general comparison skips incomparable pairs": {
		query: `for $x in (1, "a", true, [1], {"a": 1}, null, 2) where $x = (1, "a") return $x`, want: "1\n\"a\""},
	"and short-circuits before an error":    {query: `false and (1 idiv 0 eq 1)`, want: "false"},
	"or short-circuits before an error":     {query: `true or (1 idiv 0 eq 1)`, want: "true"},
	"and evaluates its left operand first":  {query: `(1 idiv 0 eq 1) and false`, wantErr: true},
	"where raises the left operand's error": {query: `for $x in (0, 1) where (1 idiv $x eq 1) and false return $x`, wantErr: true},

	// --- null semantics ---
	"null equals null":       {query: `null eq null`, want: "true"},
	"null less than number":  {query: `null lt -999999`, want: "true"},
	"null less than string":  {query: `null lt ""`, want: "true"},
	"null EBV is false":      {query: `boolean(null)`, want: "false"},
	"null arithmetic errors": {query: `null + 1`, wantErr: true},

	// --- effective boolean value ---
	"ebv empty false":        {query: `boolean(())`, want: "false"},
	"ebv zero false":         {query: `boolean(0)`, want: "false"},
	"ebv nan false":          {query: `boolean(number("x"))`, want: "false"},
	"ebv empty string false": {query: `boolean("")`, want: "false"},
	"ebv object true":        {query: `boolean({})`, want: "true"},
	"ebv empty array true":   {query: `boolean([])`, want: "true"},
	"ebv multi-atomic error": {query: `boolean((1, 2))`, wantErr: true},

	// --- object semantics ---
	"object value empty to null":  {query: `{"k": ()}.k`, want: "null"},
	"object value multi to array": {query: `{"k": (1, 2)}.k instance of array`, want: "true"},
	"dynamic key must be atomic":  {query: `{[1]: 2}`, wantErr: true},
	"lookup chains through array": {query: `[{"a": 1}, {"a": 2}][].a`, want: "1\n2"},
	"lookup key from variable":    {query: `let $k := "x" return {"x": 9}.$k`, want: "9"},
	"quoted lookup key":           {query: `{"strange key": 1}."strange key"`, want: "1"},

	// --- array semantics ---
	"array lookup one-based":    {query: `["a", "b"][[1]]`, want: `"a"`},
	"array lookup out of range": {query: `count(["a"][[5]])`, want: "0"},
	"array lookup on non-array": {query: `count((5)[[1]])`, want: "0"},
	"unbox non-array skipped":   {query: `count((1, [2, 3], "x")[])`, want: "2"},
	"nested array preserved":    {query: `[[1, 2]][[1]] instance of array`, want: "true"},
	"array of empty sequence":   {query: `size([()])`, want: "0"},

	// --- predicates ---
	"predicate boolean":             {query: `(1 to 5)[$$ gt 3]`, want: "4\n5"},
	"predicate positional":          {query: `("a", "b", "c")[2]`, want: `"b"`},
	"predicate position arithmetic": {query: `(1 to 10)[$$ mod 2 eq 0][2]`, want: "4"},
	"predicate empty result":        {query: `count((1 to 5)[$$ gt 99])`, want: "0"},

	// --- strings ---
	"concat operator empty as blank": {query: `() || "x" || ()`, want: `"x"`},
	"concat numbers stringify":       {query: `1 || 2`, want: `"12"`},
	"substring negative start":       {query: `substring("hello", 0, 2)`, want: `"h"`},
	"string-join default sep":        {query: `string-join(("a", "b"))`, want: `"ab"`},

	// --- FLWOR semantics ---
	"for over empty produces nothing": {query: `count(for $x in () return $x)`, want: "0"},
	"let binds whole sequence":        {query: `let $s := (1, 2, 3) return count($s)`, want: "3"},
	"for iterates items":              {query: `for $s in (1, 2, 3) return count($s)`, want: "1\n1\n1"},
	"where before group":              {query: `for $x in (1, 2, 3, 4) where $x gt 2 group by $k := $x mod 2 order by $k return count($x)`, want: "1\n1"},
	"order by stable ties":            {query: `for $p at $i in ("b", "a", "c") order by 1 return $i`, want: "1\n2\n3"},
	"count after where renumbers":     {query: `for $x in (5, 6, 7, 8) where $x mod 2 eq 0 count $c return $c`, want: "1\n2"},
	"group key empty sequence":        {query: `for $o in ({"k": 1}, {}) group by $k := $o.k order by $k empty least return count($o)`, want: "1\n1"},
	"allowing empty binds empty":      {query: `for $x allowing empty in () return count($x)`, want: "0"},
	"positional at starts at one":     {query: `for $x at $i in ("z") return $i`, want: "1"},
	"nested flwor independent":        {query: `for $x in (1, 2) return count(for $y in (1 to $x) return $y)`, want: "1\n2"},
	// order by over partitions: a key that is a number in one partition
	// and a string in another fails; a key error in a later partition wins.
	"order by mix across partitions errors": {
		query:   `for $x in parallelize((1, 2, 3, "a", "b", "c"), 3) order by $x return $x`,
		wantErr: true, errText: "order by: key 1 mixes strings and numbers across the tuple stream"},
	"order by key error wins over a mix": {
		query:   `for $x in parallelize((1, 2, "a", "b", [1], 3), 3) order by $x return $x`,
		wantErr: true, errText: "order by: key is a non-atomic array item"},
	"order by then count then where": {
		query: `for $x at $i in parallelize((3, 1, 2, 1, 3, 2, 1), 3) order by $x descending count $c where $c le 4 return [$c, $x, $i]`,
		want:  "[1, 3, 1]\n[2, 3, 5]\n[3, 2, 3]\n[4, 2, 6]"},

	// --- statically detected equi-joins (broadcast: both sides are
	// parallelize literals; output keeps the nested loop's left-major
	// order because the big side streams in place) ---
	"equi-join matches keys": {
		query: `for $a in parallelize(({"k": 1, "v": "x"}, {"k": 2, "v": "y"}, {"k": 3, "v": "z"}))
			        for $b in parallelize(({"k": 2, "w": "p"}, {"k": 3, "w": "q"}))
			        where $a.k eq $b.k
			        return $a.v || $b.w`,
		want: "\"yp\"\n\"zq\""},
	"equi-join null keys match": {
		query: `for $a in parallelize(({"k": null, "v": 1}, {"k": 9, "v": 2}))
			        for $b in parallelize(({"k": null, "w": 10}))
			        where $a.k eq $b.k
			        return $a.v + $b.w`,
		want: "11"},
	"equi-join absent key joins nothing": {
		query: `count(for $a in parallelize(({"v": 1}, {"k": 2, "v": 2}))
			        for $b in parallelize(({"k": 2}))
			        where $a.k eq $b.k
			        return $a)`,
		want: "1"},
	"equi-join cross-numeric keys": {
		query: `for $a in parallelize(({"k": 2, "v": "int"}))
			        for $b in parallelize(({"k": 2.0e0, "w": "dbl"}))
			        where $a.k eq $b.k
			        return $a.v || $b.w`,
		want: `"intdbl"`},
	"equi-join mixed key types error": {
		query: `for $a in parallelize(({"k": 1}, {"k": "s"}))
			        for $b in parallelize(({"k": 1}))
			        where $a.k eq $b.k
			        return $a`,
		wantErr: true},

	// --- quantifiers ---
	"some over empty false": {query: `some $x in () satisfies true`, want: "false"},
	"every over empty true": {query: `every $x in () satisfies false`, want: "true"},

	// --- conditionals ---
	"if condition ebv":        {query: `if ("") then 1 else 2`, want: "2"},
	"switch on empty matches": {query: `switch (()) case () return "empty" default return "no"`, want: `"empty"`},
	"switch deep equal case":  {query: `switch (1.0) case 1 return "one" default return "no"`, want: `"one"`},
	"switch multi-item error": {query: `switch ((1, 2)) case 1 return 1 default return 2`, wantErr: true},

	// --- try/catch ---
	"catch binds description":  {query: `try { error("xyz") } catch * { contains($err:description, "xyz") }`, want: "true"},
	"no error passes through":  {query: `try { "fine" } catch * { "caught" }`, want: `"fine"`},
	"static errors not caught": {query: `try { $undefined } catch * { "caught" }`, wantErr: true},

	// --- types ---
	"instance of star":        {query: `() instance of integer*`, want: "true"},
	"instance of plus empty":  {query: `() instance of integer+`, want: "false"},
	"instance of optional":    {query: `() instance of integer?`, want: "true"},
	"integer is decimal":      {query: `1 instance of decimal`, want: "true"},
	"decimal not integer":     {query: `1.5 instance of integer`, want: "false"},
	"castable empty false":    {query: `() castable as integer`, want: "false"},
	"cast boolean to integer": {query: `true cast as integer`, want: "1"},
	"cast string roundtrip":   {query: `("42" cast as integer) cast as string`, want: `"42"`},
	"treat failure":           {query: `(1, 2) treat as integer`, wantErr: true},

	// --- simple map ---
	"simple map context":    {query: `(1, 2) ! ($$ * $$)`, want: "1\n4"},
	"simple map flattening": {query: `count((1, 2) ! (1 to $$))`, want: "3"},

	// --- functions ---
	"count of nested flwor":  {query: `count(for $i in 1 to 3 for $j in 1 to $i return $j)`, want: "6"},
	"sum of empty zero":      {query: `sum(())`, want: "0"},
	"avg of empty empty":     {query: `count(avg(()))`, want: "0"},
	"min heterogeneous errs": {query: `min((1, "a"))`, wantErr: true},
	"json-doc parses deep":   {query: `json-doc("[1, {\"a\": [true]}]")[[2]].a[[1]]`, want: "true"},
	"serialize round trips":  {query: `json-doc(serialize({"x": [1, null]})).x[[2]]`, want: "null"},

	// --- recursion / prolog ---
	"fibonacci udf": {query: `
			declare function local:fib($n) {
			  if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2)
			};
			local:fib(15)`, want: "610"},
	"mutual recursion": {query: `
			declare function local:even($n) { if ($n eq 0) then true else local:odd($n - 1) };
			declare function local:odd($n) { if ($n eq 0) then false else local:even($n - 1) };
			local:even(10)`, want: "true"},
	"global sees earlier global": {query: `
			declare variable $a := 2;
			declare variable $b := $a * 3;
			$b`, want: "6"},

	// --- integer edge cases ---
	"max int literal":      {query: `9223372036854775807`, want: "9223372036854775807"},
	"overflow to decimal":  {query: `9223372036854775807 + 1`, want: "9223372036854775808"},
	"huge literal decimal": {query: `99999999999999999999999999`, want: "99999999999999999999999999"},

	// --- comments and whitespace ---
	"comment in flwor": {query: `for (: loop :) $x in (1) return (: out :) $x`, want: "1"},
}

// TestConformance runs a JSONiq-spec conformance table through the public
// API. Each case exercises a distinct language behaviour.
func TestConformance(t *testing.T) {
	e := newTestEngine()
	for name, c := range conformanceCases {
		t.Run(name, func(t *testing.T) {
			out, err := e.QueryJSON(c.query)
			if c.wantErr {
				if err == nil {
					t.Fatalf("query %s should fail, got %v", c.query, out)
				}
				if c.errText != "" && err.Error() != c.errText {
					t.Errorf("error %q, want %q\nquery: %s", err, c.errText, c.query)
				}
				return
			}
			if err != nil {
				t.Fatalf("query failed: %v\n%s", err, c.query)
			}
			if got := strings.Join(out, "\n"); got != c.want {
				t.Errorf("got:\n%s\nwant:\n%s\nquery: %s", got, c.want, c.query)
			}
		})
	}
}
