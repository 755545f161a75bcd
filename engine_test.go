package rumble

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func newTestEngine() *Engine {
	return New(Config{Parallelism: 4, Executors: 4})
}

// run executes a query and returns the serialized result lines.
func run(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	out, err := e.QueryJSON(q)
	if err != nil {
		t.Fatalf("query failed: %v\nquery: %s", err, q)
	}
	return out
}

func runOne(t *testing.T, e *Engine, q string) string {
	t.Helper()
	out := run(t, e, q)
	if len(out) != 1 {
		t.Fatalf("query returned %d items, want 1: %v\nquery: %s", len(out), out, q)
	}
	return out[0]
}

func TestAtomsAndArithmetic(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`1 + 2 * 3`:         "7",
		`(1 + 2) * 3`:       "9",
		`10 idiv 3`:         "3",
		`10 mod 3`:          "1",
		`1 div 2`:           "0.5",
		`-(3 - 5)`:          "2",
		`1.5 + 1.5`:         "3",
		`2e2 + 1`:           "201",
		`"a" || "b" || "c"`: `"abc"`,
		`true and false`:    "false",
		`true or false`:     "true",
		`not(true)`:         "false",
		`1 eq 1`:            "true",
		`1 lt 2`:            "true",
		`"b" gt "a"`:        "true",
		`1 = 1.0`:           "true",
		`null eq null`:      "true",
		`null lt 0`:         "true",
		`count(1 to 100)`:   "100",
		`sum(1 to 10)`:      "55",
		`avg((2, 4, 6))`:    "4",
		`min((3, 1, 2))`:    "1",
		`max((3, 1, 2))`:    "3",
	}
	for q, want := range cases {
		if got := runOne(t, e, q); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestEmptySequencePropagation(t *testing.T) {
	e := newTestEngine()
	for _, q := range []string{`() + 1`, `1 + ()`, `() eq 1`, `-()`} {
		if out := run(t, e, q); len(out) != 0 {
			t.Errorf("%s = %v, want empty", q, out)
		}
	}
}

func TestConstructorsAndNavigation(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`{ "a": 1, "b": [1, 2] }.a`:           "1",
		`{ "a": { "b": { "c": 42 } } }.a.b.c`: "42",
		`[1, 2, 3][[2]]`:                      "2",
		`[[1, 2], [3]][[1]][[2]]`:             "2",
		`{ "xs": [1, 2, 3] }.xs[]`:            "1\n2\n3",
		`(1 to 10)[$$ mod 2 eq 0]`:            "2\n4\n6\n8\n10",
		`(1 to 10)[3]`:                        "3",
		`("a", "b", "c")[2]`:                  `"b"`,
		`{ "k": () }`:                         `{"k" : null}`,
		`{ "k": (1, 2) }`:                     `{"k" : [1, 2]}`,
		`{ "a" || "b": 1 }`:                   `{"ab" : 1}`,
		`[ 1 to 3 ]`:                          "[1, 2, 3]",
		`[]`:                                  "[]",
		`{}`:                                  "{}",
		`keys({ "x": 1, "y": 2 })`:            `"x"` + "\n" + `"y"`,
		`values({ "x": 1, "y": 2 })`:          "1\n2",
		`size([1, 2, 3])`:                     "3",
		`flatten([1, [2, [3]]])`:              "1\n2\n3",
	}
	for q, want := range cases {
		got := strings.Join(run(t, e, q), "\n")
		if got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestLookupOnNonObjectIsEmpty(t *testing.T) {
	e := newTestEngine()
	if out := run(t, e, `(1, "s", [1]).foo`); len(out) != 0 {
		t.Errorf("lookup on non-objects = %v", out)
	}
	if out := run(t, e, `{ "a": 1 }.missing`); len(out) != 0 {
		t.Errorf("missing key = %v", out)
	}
}

func TestControlFlow(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`if (1 lt 2) then "yes" else "no"`:                                  `"yes"`,
		`if (()) then 1 else 2`:                                             "2",
		`switch (2) case 1 return "a" case 2 return "b" default return "c"`: `"b"`,
		`switch ("x") case "y" return 1 default return 99`:                  "99",
		`try { 1 div 0 } catch * { "caught" }`:                              `"caught"`,
		`try { error("boom") } catch * { $err:description }`:                `"boom"`,
		`try { 42 } catch * { 0 }`:                                          "42",
		`some $x in (1, 2, 3) satisfies $x gt 2`:                            "true",
		`every $x in (1, 2, 3) satisfies $x gt 2`:                           "false",
		`every $x in () satisfies false`:                                    "true",
		`some $x in (1, 2), $y in (3, 4) satisfies $x + $y eq 6`:            "true",
	}
	for q, want := range cases {
		if got := runOne(t, e, q); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestTypes(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`5 instance of integer`:           "true",
		`5 instance of decimal`:           "true",
		`5.0 instance of integer`:         "false",
		`(1, 2) instance of integer+`:     "true",
		`() instance of empty-sequence()`: "true",
		`"x" instance of atomic`:          "true",
		`[1] instance of array`:           "true",
		`"12" cast as integer`:            "12",
		`42 cast as string`:               `"42"`,
		`"3.5" cast as double`:            "3.5",
		`"x" castable as integer`:         "false",
		`"7" castable as integer`:         "true",
		`(1, 2) treat as integer+`:        "1\n2",
	}
	for q, want := range cases {
		got := strings.Join(run(t, e, q), "\n")
		if got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
	if _, err := e.Query(`"x" treat as integer`); err == nil {
		t.Error("treat as mismatch should error")
	}
}

func TestStringFunctions(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`upper-case("abc")`:                  `"ABC"`,
		`lower-case("AbC")`:                  `"abc"`,
		`string-length("héllo")`:             "5",
		`substring("hello", 2, 3)`:           `"ell"`,
		`contains("hello", "ell")`:           "true",
		`starts-with("hello", "he")`:         "true",
		`ends-with("hello", "lo")`:           "true",
		`concat("a", "b", "c")`:              `"abc"`,
		`string-join(("a", "b"), "-")`:       `"a-b"`,
		`tokenize("a b  c")`:                 `"a"` + "\n" + `"b"` + "\n" + `"c"`,
		`tokenize("a,b,c", ",")`:             `"a"` + "\n" + `"b"` + "\n" + `"c"`,
		`matches("hello", "^h.*o$")`:         "true",
		`replace("banana", "a", "o")`:        `"bonono"`,
		`substring-before("key=val", "=")`:   `"key"`,
		`substring-after("key=val", "=")`:    `"val"`,
		`normalize-space("  a   b ")`:        `"a b"`,
		`string(42)`:                         `"42"`,
		`serialize({ "a": 1 })`:              `"{\"a\" : 1}"`,
		`json-doc("{\"a\": [1, 2]}").a[[2]]`: "2",
	}
	for q, want := range cases {
		got := strings.Join(run(t, e, q), "\n")
		if got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestSequenceFunctions(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`head((1, 2, 3))`:                  "1",
		`tail((1, 2, 3))`:                  "2\n3",
		`reverse((1, 2, 3))`:               "3\n2\n1",
		`subsequence((1, 2, 3, 4), 2, 2)`:  "2\n3",
		`distinct-values((1, 2, 1, 3, 2))`: "1\n2\n3",
		`distinct-values((1, 1.0, "1"))`:   "1\n\"1\"",
		`index-of((10, 20, 10), 10)`:       "1\n3",
		`insert-before((1, 3), 2, (2))`:    "1\n2\n3",
		`remove((1, 99, 2), 2)`:            "1\n2",
		`empty(())`:                        "true",
		`exists((1))`:                      "true",
		`boolean("")`:                      "false",
		`abs(-5)`:                          "5",
		`floor(2.7)`:                       "2",
		`ceiling(2.1)`:                     "3",
		`round(2.5)`:                       "3",
		`sqrt(9)`:                          "3",
		`pow(2, 10)`:                       "1024",
		`number("2.5")`:                    "2.5",
		`number("nope")`:                   "NaN",
	}
	for q, want := range cases {
		got := strings.Join(run(t, e, q), "\n")
		if got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

// TestDistinctValuesAgree: distinct-values tells atomics apart by eq, and
// other items by kind and JSON, on every path — a Spark-less engine, and
// locally and over parallelize's RDD at Parallelism 1 and 4. 2^53+1 and
// 2^53 stay two values; 1e21 and the integer 10^21 are one, as are 0 and
// -0e0.
func TestDistinctValuesAgree(t *testing.T) {
	engines := []struct {
		name string
		e    *Engine
	}{
		{"Spark-less", New(Config{})},
		{"Parallelism 1", New(Config{Parallelism: 1, Executors: 1})},
		{"Parallelism 4", New(Config{Parallelism: 4, Executors: 2})},
	}
	for args, want := range map[string]int{
		`9007199254740993, 9007199254740992`: 2,
		`1e21, 1000000000000000000000`:       1,
		`0, -0e0`:                            1,
		`1, 1.0, 1e0, "1", null, true, [1], [1], {"a": 1}, "1"`: 6,
	} {
		var first []string
		for _, eng := range engines {
			for _, q := range []string{"distinct-values((%s))", "distinct-values(parallelize((%s)))"} {
				q = fmt.Sprintf(q, args)
				got := run(t, eng.e, q)
				sort.Strings(got)
				if len(got) != want {
					t.Errorf("%s: %s = %v, want %d items", eng.name, q, got, want)
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Errorf("%s: %s = %v, want %v", eng.name, q, got, first)
				}
			}
		}
	}
}

func TestFLWORBasics(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`for $x in (1, 2, 3) return $x * 10`:                      "10\n20\n30",
		`for $x in (1, 2, 3) where $x ge 2 return $x`:             "2\n3",
		`let $x := (1, 2, 3) return count($x)`:                    "3",
		`for $x in (1, 2) for $y in (10, 20) return $x + $y`:      "11\n21\n12\n22",
		`for $x in (1, 2), $y in (10, 20) return $x + $y`:         "11\n21\n12\n22",
		`for $x at $i in ("a", "b") return { "i": $i, "v": $x }`:  `{"i" : 1, "v" : "a"}` + "\n" + `{"i" : 2, "v" : "b"}`,
		`for $x in (3, 1, 2) order by $x return $x`:               "1\n2\n3",
		`for $x in (3, 1, 2) order by $x descending return $x`:    "3\n2\n1",
		`for $x in (1, 2, 3, 4) count $c where $c ge 3 return $x`: "3\n4",
		`for $x allowing empty in () return "still here"`:         `"still here"`,
		`for $x in (1, 2) let $y := $x * 2 return $y`:             "2\n4",
		`let $x := 5 let $x := $x + 1 return $x`:                  "6", // redeclaration
	}
	for q, want := range cases {
		got := strings.Join(run(t, e, q), "\n")
		if got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestFLWORGroupBy(t *testing.T) {
	e := newTestEngine()
	// The paper's §4.7 heterogeneous grouping example: no error, 3 groups.
	q := `
	for $i in parallelize((
	  {"key" : "foo", "value" : "anything"},
	  {"key" : 1, "value" : "anything"},
	  {"key" : 1, "value" : "anything"},
	  {"key" : "foo", "value" : "anything"},
	  {"key" : true, "value" : "anything"}
	))
	group by $key := $i.key
	order by count($i) descending, string($key) ascending
	return { "key" : $key, "count" : count($i) }`
	got := run(t, e, q)
	want := []string{
		`{"key" : 1, "count" : 2}`,
		`{"key" : "foo", "count" : 2}`,
		`{"key" : true, "count" : 1}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("heterogeneous group by:\ngot  %v\nwant %v", got, want)
	}
}

func TestFLWORGroupByMaterializesNonGroupingVars(t *testing.T) {
	e := newTestEngine()
	q := `
	for $x in (1, 2, 3, 4, 5, 6)
	group by $parity := $x mod 2
	order by $parity
	return { "parity": $parity, "values": [ $x ], "sum": sum($x) }`
	got := run(t, e, q)
	want := []string{
		`{"parity" : 0, "values" : [2, 4, 6], "sum" : 12}`,
		`{"parity" : 1, "values" : [1, 3, 5], "sum" : 9}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("group by materialization:\ngot  %v\nwant %v", got, want)
	}
}

func TestFLWORGroupByEmptyKey(t *testing.T) {
	e := newTestEngine()
	q := `
	for $o in ({"k": 1, "v": 1}, {"v": 2}, {"k": 1, "v": 3})
	group by $k := $o.k
	order by $k empty least
	return { "key": $k, "n": count($o) }`
	got := run(t, e, q)
	want := []string{
		`{"key" : null, "n" : 1}`,
		`{"key" : 1, "n" : 2}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty group key:\ngot  %v\nwant %v", got, want)
	}
}

func TestFLWOROrderBySemantics(t *testing.T) {
	e := newTestEngine()
	// empty least (default) and empty greatest
	q := `for $o in ({"v": 2}, {}, {"v": 1}) order by $o.v return { "v": $o.v }`
	got := run(t, e, q)
	want := []string{`{"v" : null}`, `{"v" : 1}`, `{"v" : 2}`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty least:\ngot %v want %v", got, want)
	}
	q = `for $o in ({"v": 2}, {}, {"v": 1}) order by $o.v empty greatest return { "v": $o.v }`
	got = run(t, e, q)
	want = []string{`{"v" : 1}`, `{"v" : 2}`, `{"v" : null}`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty greatest:\ngot %v want %v", got, want)
	}
	// null sorts below any value but above empty
	q = `for $o in ({"v": 1}, {"v": null}, {}) order by $o.v return [ $o.v ]`
	got = run(t, e, q)
	want = []string{`[]`, `[null]`, `[1]`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("null ordering:\ngot %v want %v", got, want)
	}
	// incompatible types must raise an error
	if _, err := e.Query(`for $x in (1, "a") order by $x return $x`); err == nil {
		t.Error("mixed string/number order by should error")
	}
	// multi-key with directions
	q = `for $o in ({"a": 1, "b": 2}, {"a": 1, "b": 1}, {"a": 0, "b": 9})
	     order by $o.a ascending, $o.b descending
	     return [ $o.a, $o.b ]`
	got = run(t, e, q)
	want = []string{`[0, 9]`, `[1, 2]`, `[1, 1]`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-key order:\ngot %v want %v", got, want)
	}
}

func TestFLWORStableSort(t *testing.T) {
	e := newTestEngine()
	q := `for $o at $i in ({"k": 1}, {"k": 1}, {"k": 0}, {"k": 1})
	      order by $o.k
	      return $i`
	got := run(t, e, q)
	want := []string{"3", "1", "2", "4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stable sort:\ngot %v want %v", got, want)
	}
}

func TestUserDefinedFunctions(t *testing.T) {
	e := newTestEngine()
	q := `
	declare function local:fact($n) {
	  if ($n le 1) then 1 else $n * local:fact($n - 1)
	};
	local:fact(10)`
	if got := runOne(t, e, q); got != "3628800" {
		t.Errorf("fact(10) = %s", got)
	}
	q = `
	declare variable $base := 100;
	declare function local:add($x, $y) { $x + $y + $base };
	local:add(1, 2)`
	if got := runOne(t, e, q); got != "103" {
		t.Errorf("udf with global = %s", got)
	}
}

func TestPrologVariables(t *testing.T) {
	e := newTestEngine()
	q := `
	declare variable $threshold := 2;
	declare variable $double := $threshold * 2;
	for $x in (1, 2, 3, 4, 5) where $x gt $double return $x`
	got := strings.Join(run(t, e, q), "\n")
	if got != "5" {
		t.Errorf("prolog variables = %s", got)
	}
}

func TestStaticErrors(t *testing.T) {
	e := newTestEngine()
	bad := []string{
		`$undefined`,
		`for $x in (1) return $y`,
		`nosuchfunction(1)`,
		`count(1, 2, 3)`,
		`declare function local:f($a) { $a }; local:f(1, 2)`,
		`let $x := $x return 1`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("query %q should fail statically", q)
		}
	}
}

func TestDynamicErrors(t *testing.T) {
	e := newTestEngine()
	bad := []string{
		`1 div 0`,
		`"a" + 1`,
		`(1, 2) + 1`,
		`{ "k": 1 }.k[(1,2)]`,
		`error("explicit")`,
		`"x" cast as integer`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("query %q should fail dynamically", q)
		}
	}
}

// writeConfusionFile writes n confusion-style JSON objects and returns the
// path.
func writeConfusionFile(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "confusion.jsonl")
	var sb strings.Builder
	langs := []string{"French", "German", "Danish", "Swedish"}
	countries := []string{"AU", "US", "DE", "FR"}
	for i := 0; i < n; i++ {
		guess := langs[i%len(langs)]
		target := langs[(i/2)%len(langs)]
		fmt.Fprintf(&sb, `{"guess": %q, "target": %q, "country": %q, "choices": [%q, %q], "date": "2013-%02d-%02d"}`+"\n",
			guess, target, countries[i%len(countries)], langs[i%2], langs[(i+1)%3+1], i%12+1, i%28+1)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJSONFileParallelExecution(t *testing.T) {
	e := New(Config{Parallelism: 4, Executors: 4, SplitSize: 2048})
	path := writeConfusionFile(t, 1000)
	st, err := e.Compile(fmt.Sprintf(`
	  for $o in json-file(%q)
	  where $o.guess eq $o.target
	  return $o`, path))
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsParallel() {
		t.Fatal("json-file FLWOR should run in parallel (DataFrame plan)")
	}
	out, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Compare with a fully local engine (no Spark parallelism): results
	// must be identical, per the data-independence invariant.
	local := New(Config{})
	local.env.Spark = nil
	st2, err := local.Compile(fmt.Sprintf(`
	  for $o in json-file(%q)
	  where $o.guess eq $o.target
	  return $o`, path))
	if err != nil {
		t.Fatal(err)
	}
	if st2.IsParallel() {
		t.Fatal("engine without Spark should run locally")
	}
	out2, err := st2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(out2) {
		t.Fatalf("parallel %d items vs local %d items", len(out), len(out2))
	}
	for i := range out {
		if string(out[i].AppendJSON(nil)) != string(out2[i].AppendJSON(nil)) {
			t.Fatalf("row %d differs between parallel and local execution", i)
		}
	}
}

func TestLocalVsParallelEquivalence(t *testing.T) {
	// The central data-independence invariant: the same query over the
	// same data yields identical results whether executed locally or on
	// the cluster with DataFrames.
	path := writeConfusionFile(t, 600)
	queries := []string{
		`for $o in json-file(%q) where $o.guess eq $o.target return $o.country`,
		`for $o in json-file(%q) group by $t := $o.target order by $t return { "t": $t, "n": count($o) }`,
		`for $o in json-file(%q) order by $o.target ascending, $o.country descending, $o.date descending return $o.date`,
		`for $o in json-file(%q) let $len := string-length($o.guess) where $len ge 6 count $c return $c`,
		`for $o at $i in json-file(%q) where $i le 5 return $i`,
		`for $o in json-file(%q) for $c in $o.choices[] group by $ch := $c order by $ch return { "c": $ch, "n": count($o) }`,
		// The shapes below exercise the tuples' compile-time frames.
		// A let shadows the for variable before and after the group-by.
		`for $o in json-file(%q) let $o := $o.target group by $t := $o let $o := count($o) order by $t return [$t, $o]`,
		`for $o in json-file(%q) let $o := $o.guess let $o := string-length($o) group by $o order by $o return $o`,
		// group by $existing next to $k := expr, the second key reading the first.
		`for $o in json-file(%q) let $t := $o.target group by $t, $k := concat($t, "/", $o.country) order by $k
		 return { "t": $t, "k": $k, "n": count($o) }`,
		// One carried variable used whole, one only counted, one unused.
		`for $o in json-file(%q) let $g := $o.guess let $d := $o.date let $u := $o.choices
		 group by $t := $o.target order by $t return { "t": $t, "n": count($g), "dates": [subsequence($d, 1, 3)] }`,
		// Non-initial for clauses: positional, and allowing empty.
		`for $o in json-file(%q) for $c at $p in $o.choices[] where $p eq 2 return [$o.guess, $c, $p]`,
		`for $o in json-file(%q) for $c allowing empty at $p in $o.choices[][$$ eq "French"] return [$o.date, $c, $p]`,
		// count after where; where between group by and order by.
		`for $o in json-file(%q) where $o.guess eq $o.target count $c where $c mod 50 eq 0 return [$c, $o.date]`,
		`for $o in json-file(%q) group by $c := $o.country where count($o) gt 100 order by $c descending return [$c, count($o)]`,
		// Absent ordering keys, least and greatest.
		`for $o in json-file(%q) order by (if ($o.guess eq $o.target) then () else $o.guess) empty greatest, $o.date return $o.guess`,
		`for $o in json-file(%q) order by (if ($o.guess eq $o.target) then () else $o.guess) descending, $o.date return $o.guess`,
		// A detected join followed by a group-by.
		`for $a in parallelize(1 to 40) for $b in parallelize(1 to 60) where $a mod 7 eq $b mod 5
		 group by $k := $a mod 7 order by $k return [$k, count($b), sum($a)]`,
		// A FLWOR under a hoisted cluster-bound let.
		`let $d := json-file(%q) for $o at $p in $d where $o.guess eq $o.target order by $o.date descending, $p
		 count $c where $c le 5 return [$c, $p, $o.date, count($d)]`,
	}
	// Unordered group-bys compare as multisets: grouping keys of every kind,
	// the equal ones (0.0/-0.0, 1/1.0) merging and the close ones not.
	unordered := []string{
		`for $x in parallelize((0.0, -0.0, 1, 1.0, 9007199254740993, 9007199254740992, "a", null, true,
		   number("NaN"), number("NaN"), false, "1"))
		 group by $k := $x return [$k, count($x)]`,
		`for $x in parallelize(1 to 30) group by $a := $x mod 3, $b := $x mod 2 return [$a, $b, sum($x)]`,
		`for $o in json-file(%q) group by $t := $o.target, $c := $o.country return [$t, $c, count($o)]`,
	}
	parallel := New(Config{Parallelism: 4, Executors: 4, SplitSize: 1024})
	local := New(Config{})
	local.env.Spark = nil
	quoted := strconv.Quote(path)
	// Every query here must succeed on every backend: an error all three
	// agree on is still a failure.
	mustAgree := func(tmpl string, unordered bool) {
		q := strings.ReplaceAll(tmpl, "%q", quoted)
		if msg := checkModesAgree(t, parallel, local, q, unordered); msg != "" {
			t.Fatalf("query failed: %s\nquery: %s", msg, q)
		}
	}
	for _, tmpl := range queries {
		mustAgree(tmpl, false)
	}
	for _, tmpl := range unordered {
		mustAgree(tmpl, true)
	}
	// Order-by answers and errors pinned as literals, on 1, 2 and 8
	// executors against the Spark-less engine, collected and streamed
	// (%m is a file whose key is a number in its first splits and a string
	// in its last). A mix fails before any tuple leaves the sort however
	// the result is consumed; a key error in one split wins over a mix
	// across others.
	mixed := strconv.Quote(writeOrderMixFile(t))
	mixErr := "order by: key 1 mixes strings and numbers across the tuple stream"
	pinned := []struct{ tmpl, want string }{
		{`for $o in json-file(%m) order by $o.k return $o.id`, mixErr},
		{`(for $o in json-file(%m) order by $o.k return $o.id)[1]`, mixErr},
		{`count(for $o in json-file(%m) order by $o.k return $o.id)`, mixErr},
		{`for $o in json-file(%m) order by $o.k descending count $c where $c le 3 return $c`, mixErr},
		{`for $o in json-file(%m) order by (if ($o.id eq 190) then (1, 2) else $o.k) return $o.id`,
			"order by: key binds a sequence of 2 items"},
		{`for $o at $i in json-file(%q) where $o.guess eq $o.target
		  order by $o.target ascending, $o.country descending, $o.date descending
		  count $c where $c le 10 return $o.target || "," || $o.country || "," || $o.date || "," || $i`,
			`"French,AU,2013-09-25,81"
"French,AU,2013-09-25,249"
"French,AU,2013-09-25,417"
"French,AU,2013-09-25,585"
"French,AU,2013-09-21,105"
"French,AU,2013-09-21,273"
"French,AU,2013-09-21,441"
"French,AU,2013-09-17,129"
"French,AU,2013-09-17,297"
"French,AU,2013-09-17,465"`},
	}
	for _, c := range pinned {
		q := strings.NewReplacer("%q", quoted, "%m", mixed).Replace(c.tmpl)
		for _, executors := range []int{1, 2, 8} {
			e := New(Config{Parallelism: 4, Executors: executors, SplitSize: 1024})
			got := checkModesAgree(t, e, local, q, false)
			if got == "" {
				got = strings.Join(run(t, e, q), "\n")
			}
			if got != c.want {
				t.Errorf("%d executors: got\n%s\nwant\n%s\nquery: %s", executors, got, c.want, q)
			}
		}
	}
}

// writeOrderMixFile writes 200 objects whose "k" is a small integer in the
// first 100 and a string in the last 100, and returns the path. At a 1 KiB
// split size the two halves fall in different splits.
func writeOrderMixFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mix.jsonl")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i < 100 {
			fmt.Fprintf(&sb, `{"id": %d, "k": %d}`+"\n", i, i%7)
		} else {
			fmt.Fprintf(&sb, `{"id": %d, "k": "s%d"}`+"\n", i, i%7)
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGroupByCountOptimization(t *testing.T) {
	// count($o)-only usage after group by must not change results (the
	// §4.7 COUNT() pushdown) — verified against a sum over values form.
	e := newTestEngine()
	q := `
	for $x in parallelize(1 to 100)
	group by $m := $x mod 3
	order by $m
	return { "m": $m, "n": count($x) }`
	got := run(t, e, q)
	want := []string{
		`{"m" : 0, "n" : 33}`,
		`{"m" : 1, "n" : 34}`,
		`{"m" : 2, "n" : 33}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("count optimization:\ngot  %v\nwant %v", got, want)
	}
}

func TestParallelizeFunction(t *testing.T) {
	e := newTestEngine()
	st, err := e.Compile(`for $x in parallelize(1 to 1000) where $x mod 7 eq 0 return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsParallel() {
		t.Error("parallelize should enable the DataFrame plan")
	}
	out, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 142 {
		t.Errorf("%d multiples of 7", len(out))
	}
	// with explicit partition count
	if got := runOne(t, e, `count(parallelize(1 to 50, 5))`); got != "50" {
		t.Errorf("parallelize with partitions count = %s", got)
	}
}

func TestCollections(t *testing.T) {
	e := newTestEngine()
	if err := e.RegisterJSON("products", []string{
		`{"pid": 1, "name": "widget"}`,
		`{"pid": 2, "name": "gadget"}`,
	}); err != nil {
		t.Fatal(err)
	}
	got := run(t, e, `for $p in collection("products") where $p.pid eq 2 return $p.name`)
	if len(got) != 1 || got[0] != `"gadget"` {
		t.Errorf("collection query = %v", got)
	}
	if _, err := e.Query(`collection("nope")`); err == nil {
		t.Error("unregistered collection should error")
	}
}

func TestAggregatePushdown(t *testing.T) {
	path := writeConfusionFile(t, 500)
	e := New(Config{Parallelism: 4, Executors: 4, SplitSize: 1024})
	if got := runOne(t, e, fmt.Sprintf(`count(json-file(%q))`, path)); got != "500" {
		t.Errorf("count = %s", got)
	}
	if got := runOne(t, e, fmt.Sprintf(`exists(json-file(%q))`, path)); got != "true" {
		t.Errorf("exists = %s", got)
	}
	got := runOne(t, e, fmt.Sprintf(`count(distinct-values(json-file(%q).target))`, path))
	if got != "4" {
		t.Errorf("distinct targets = %s", got)
	}
	sum := runOne(t, e, `sum(parallelize(1 to 1000))`)
	if sum != "500500" {
		t.Errorf("sum = %s", sum)
	}
	if got := runOne(t, e, `avg(parallelize((2, 4, 6, 8)))`); got != "5" {
		t.Errorf("avg = %s", got)
	}
	if got := runOne(t, e, `max(parallelize((3, 9, 1)))`); got != "9" {
		t.Errorf("max = %s", got)
	}
}

func TestHeterogeneousDataHandling(t *testing.T) {
	// The paper's Figure 5/7 scenario: country is a string, an array of
	// strings, or missing; the fallback expression picks the first
	// available form.
	e := newTestEngine()
	if err := e.RegisterJSON("messy", []string{
		`{"country": "AU", "target": "French"}`,
		`{"country": ["DE", "AT"], "target": "French"}`,
		`{"target": "German"}`,
		`{"country": "AU", "target": "German"}`,
	}); err != nil {
		t.Fatal(err)
	}
	q := `
	for $o in collection("messy")
	group by $c := ($o.country[], $o.country, "USA")[1],
	         $t := $o.target
	order by $c, $t
	return { "country": $c, "target": $t, "count": count($o) }`
	got := run(t, e, q)
	want := []string{
		`{"country" : "AU", "target" : "French", "count" : 1}`,
		`{"country" : "AU", "target" : "German", "count" : 1}`,
		`{"country" : "DE", "target" : "French", "count" : 1}`,
		`{"country" : "USA", "target" : "German", "count" : 1}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("messy grouping:\ngot  %v\nwant %v", got, want)
	}
}

func TestFigure6TypePreservation(t *testing.T) {
	// Unlike the DataFrame import of Figure 6, heterogeneous values keep
	// their original types.
	e := newTestEngine()
	if err := e.RegisterJSON("het", []string{
		`{"foo": "1", "bar": 2, "foobar": true}`,
		`{"foo": "2", "bar": [4], "foobar": "false"}`,
		`{"foo": "3", "bar": "6"}`,
	}); err != nil {
		t.Fatal(err)
	}
	got := run(t, e, `
	for $o in collection("het")
	order by $o.foo
	return { "bar-is": switch (true)
	    case $o.bar instance of integer return "integer"
	    case $o.bar instance of array return "array"
	    case $o.bar instance of string return "string"
	    default return "other" }`)
	want := []string{
		`{"bar-is" : "integer"}`,
		`{"bar-is" : "array"}`,
		`{"bar-is" : "string"}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("type preservation:\ngot  %v\nwant %v", got, want)
	}
}

func TestWriteTo(t *testing.T) {
	e := New(Config{Parallelism: 3, Executors: 3})
	st, err := e.Compile(`for $x in parallelize(1 to 100) return { "x": $x }`)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "out")
	if err := st.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "_SUCCESS")); err != nil {
		t.Error("_SUCCESS marker missing")
	}
	// Read back through the engine.
	n := runOne(t, e, fmt.Sprintf(`count(json-file(%q))`, dir))
	if n != "100" {
		t.Errorf("read back %s items", n)
	}
}

func TestStatementStream(t *testing.T) {
	e := newTestEngine()
	st, err := e.Compile(`1 to 5`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := st.Stream(func(it Item) error {
		got = append(got, it.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "1,2,3,4,5" {
		t.Errorf("stream = %v", got)
	}
}

func TestToNative(t *testing.T) {
	e := newTestEngine()
	items, err := e.Query(`{ "a": [1, 2.5], "b": null, "c": "s", "d": true }`)
	if err != nil {
		t.Fatal(err)
	}
	native := ToNative(items[0]).(map[string]any)
	if native["b"] != nil || native["c"] != "s" || native["d"] != true {
		t.Errorf("native = %#v", native)
	}
	arr := native["a"].([]any)
	if arr[0] != int64(1) || arr[1] != 2.5 {
		t.Errorf("array = %#v", arr)
	}
}

func TestMaxResultItemsCap(t *testing.T) {
	e := New(Config{Parallelism: 4, Executors: 2, MaxResultItems: 10})
	_, err := e.Query(`for $x in parallelize(1 to 1000) return $x`)
	if err == nil {
		t.Error("materializing 1000 items with a cap of 10 should error")
	}
}

func TestPaperFigure4Query(t *testing.T) {
	// Figure 4: sort + count-clause filter.
	e := newTestEngine()
	if err := e.RegisterJSON("games", []string{
		`{"guess": "French", "target": "French", "language": "French", "country": "AU", "date": "2013-08-19"}`,
		`{"guess": "German", "target": "French", "language": "German", "country": "DE", "date": "2013-08-20"}`,
		`{"guess": "Danish", "target": "Danish", "language": "Danish", "country": "DK", "date": "2013-08-21"}`,
	}); err != nil {
		t.Fatal(err)
	}
	q := `
	for $i in collection("games")
	where $i.guess = $i.target
	order by $i.language ascending,
	         $i.country descending,
	         $i.date descending
	count $c
	where $c le 10
	return $i.language`
	got := run(t, e, q)
	want := []string{`"Danish"`, `"French"`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("figure 4 query:\ngot  %v\nwant %v", got, want)
	}
}

func TestNestedFLWORJoin(t *testing.T) {
	// A nested-loop join through a nested FLWOR, like the Figure 8 query.
	e := newTestEngine()
	if err := e.RegisterJSON("orders", []string{
		`{"oid": 1, "customer": 10, "items": [{"pid": 1}, {"pid": 2}]}`,
		`{"oid": 2, "customer": 11, "items": [{"pid": 2}]}`,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterJSON("products", []string{
		`{"pid": 1, "name": "widget"}`,
		`{"pid": 2, "name": "gadget"}`,
	}); err != nil {
		t.Fatal(err)
	}
	q := `
	for $order in collection("orders")
	order by $order.oid
	return {
	  "oid": $order.oid,
	  "names": [
	    for $item in $order.items[]
	    for $p in collection("products")
	    where $p.pid eq $item.pid
	    return $p.name
	  ]
	}`
	got := run(t, e, q)
	want := []string{
		`{"oid" : 1, "names" : ["widget", "gadget"]}`,
		`{"oid" : 2, "names" : ["gadget"]}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("join:\ngot  %v\nwant %v", got, want)
	}
}

func TestQuantifiedOverCollection(t *testing.T) {
	e := newTestEngine()
	if err := e.RegisterJSON("orders", []string{
		`{"oid": 1, "items": [1, 2]}`,
		`{"oid": 2, "items": [2, 99]}`,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterJSON("catalog", []string{`{"pid": 1}`, `{"pid": 2}`}); err != nil {
		t.Fatal(err)
	}
	q := `
	for $o in collection("orders")
	where every $i in $o.items[] satisfies
	      some $p in collection("catalog") satisfies $p.pid eq $i
	return $o.oid`
	got := run(t, e, q)
	if len(got) != 1 || got[0] != "1" {
		t.Errorf("quantified join = %v", got)
	}
}
