package rumble

import (
	"fmt"
	"strings"
	"testing"
)

// groupPartialsLines draws the corpus of TestGroupPartialsAgree: n objects
// whose key k cycles through 0, 1 and 1.0, "a", 3 and 3e0, null, nothing,
// and 0 and -0e0, with integer and decimal values v.
func groupPartialsLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		var k string
		switch i % 7 {
		case 0:
			k = `,"k":0`
		case 1:
			k = `,"k":1`
			if i%2 == 1 {
				k = `,"k":1.0`
			}
		case 2:
			k = `,"k":"a"`
		case 3:
			k = `,"k":3`
			if i%3 == 0 {
				k = `,"k":3e0`
			}
		case 4:
			k = `,"k":null`
		case 6:
			k = `,"k":0`
			if i%2 == 0 {
				k = `,"k":-0e0`
			}
		}
		v := fmt.Sprint(i * 37 % 101)
		if i%11 == 0 {
			v += ".5"
		}
		lines[i] = fmt.Sprintf(`{"i":%d%s,"v":%s}`, i, k, v)
	}
	return lines
}

// TestGroupPartialsAgree pins what a group-by answers while the DataFrame
// path folds each split into partial groups and the reduce folds the
// partials: count-only, sequence and sum carries, keys that mix 1 with 1.0,
// 3 with 3e0 and 0 with -0e0 (a group's key is its first member's), a key
// of two items at a late row of the last split, and a non-atomic key. The
// Spark-less engine and the cluster at Executors 1, 2 and 8 over 8 KiB
// splits give the pinned items or error text, each answer computed before
// partial groups existed.
func TestGroupPartialsAgree(t *testing.T) {
	const rows = 1500
	lines := groupPartialsLines(rows)
	a := writeAggregateInput(t, lines)
	bad := append([]string(nil), lines...)
	bad[rows-30] = strings.Replace(bad[rows-30], `"v":`, `"extra":1,"v":`, 1)
	bad[rows-20] = fmt.Sprintf(`{"i":%d,"k":{"a":1},"v":1}`, rows-20)
	b := writeAggregateInput(t, bad)

	local := New(Config{})
	local.env.Spark = nil
	engines := []aggregateEngine{{"spark-less", "local", local}}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines, aggregateEngine{fmt.Sprintf("cluster x%d", w), "cluster",
			New(Config{Parallelism: 4, Executors: w, SplitSize: 8 << 10})})
	}
	cases := []struct{ query, want string }{
		{fmt.Sprintf(`for $o in json-file(%q) group by $k := $o.k order by string($k)
			return {"k": $k, "int": $k instance of integer, "dbl": $k instance of double, "n": count($o)}`, a),
			`{"k" : null, "int" : false, "dbl" : false, "n" : 214}
{"k" : 0, "int" : true, "dbl" : false, "n" : 429}
{"k" : 1, "int" : false, "dbl" : false, "n" : 215}
{"k" : 3, "int" : false, "dbl" : true, "n" : 214}
{"k" : "a", "int" : false, "dbl" : false, "n" : 214}
{"k" : null, "int" : false, "dbl" : false, "n" : 214}`},
		{fmt.Sprintf(`for $o in json-file(%q) group by $k := $o.k order by string($k)
			return {"k": $k, "first": $o[1].i, "last": $o[count($o)].i, "w": sum(for $x at $p in $o return $p * $x.i)}`, a),
			`{"k" : null, "first" : 5, "last" : 1496, "w" : 22981995}
{"k" : 0, "first" : 0, "last" : 1498, "w" : 92227045}
{"k" : 1, "first" : 1, "last" : 1499, "w" : 23212260}
{"k" : 3, "first" : 3, "last" : 1494, "w" : 22935985}
{"k" : "a", "first" : 2, "last" : 1493, "w" : 22912980}
{"k" : null, "first" : 4, "last" : 1495, "w" : 22958990}`},
		{fmt.Sprintf(`for $o in json-file(%q) let $v := $o.v group by $k := $o.k order by string($k)
			return {"k": $k, "s": sum($v), "n": count($v)}`, a),
			`{"k" : null, "s" : 10739, "n" : 214}
{"k" : 0, "s" : 21395.5, "n" : 429}
{"k" : 1, "s" : 10694, "n" : 215}
{"k" : 3, "s" : 10658.5, "n" : 214}
{"k" : "a", "s" : 10820.5, "n" : 214}
{"k" : null, "s" : 10699, "n" : 214}`},
		{fmt.Sprintf(`for $o in json-file(%q) let $m := $o.i mod 3, $v := $o.v group by $k := $o.k, $m
			order by string($k), $m return [$k, $m, count($o), sum($v), $v[1]]`, a),
			`[0, 71, 3578.5, 40]
[1, 71, 3585, 97]
[2, 72, 3575.5, 84]
[0, 0, 144, 7099.5, 0.5]
[0, 1, 143, 7129.5, 57]
[0, 2, 142, 7166.5, 13]
[1, 0, 71, 3581.5, 50]
[1, 1, 72, 3524.5, 37]
[1, 2, 72, 3588, 94]
[3, 0, 72, 3701.5, 10]
[3, 1, 71, 3475, 67]
[3, 2, 71, 3482, 23]
["a", 0, 71, 3474, 30]
["a", 1, 71, 3683, 87]
["a", 2, 72, 3663.5, 74]
[null, 0, 71, 3483, 60]
[null, 1, 72, 3638.5, 47]
[null, 2, 71, 3577.5, 3.5]`},
		{fmt.Sprintf(`for $o in json-file(%q) group by $k := ($o.k, $o.extra) return count($o)`, b),
			`error: group by: key $k binds a sequence of 2 items`},
		{fmt.Sprintf(`for $o in json-file(%q) group by $k := $o.k return count($o)`, b),
			`error: group by: key $k binds a non-atomic object item`},
	}
	for _, c := range cases {
		for _, e := range engines {
			if e.family == "cluster" {
				st, err := e.eng.Compile(c.query)
				if err != nil {
					t.Fatal(err)
				}
				if st.Mode() != "DataFrame" {
					t.Fatalf("%s: mode %s, want DataFrame\nquery: %s", e.name, st.Mode(), c.query)
				}
			}
			if got := answer(e.eng, c.query); got != c.want {
				t.Errorf("%s:\ngot  %s\nwant %s\nquery: %s", e.name, got, c.want, c.query)
			}
		}
	}
}
