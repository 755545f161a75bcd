package rumble

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestSimpleMapOperator(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`(1, 2, 3) ! ($$ * 10)`:           "10\n20\n30",
		`(1 to 3) ! { "v": $$ }`:          `{"v" : 1}` + "\n" + `{"v" : 2}` + "\n" + `{"v" : 3}`,
		`("a", "bb") ! string-length($$)`: "1\n2",
		`(1, 2) ! ($$ , $$)`:              "1\n1\n2\n2",
		`({"a": {"b": 5}}) ! $$.a ! $$.b`: "5",
	}
	for q, want := range cases {
		got := strings.Join(run(t, e, q), "\n")
		if got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestSimpleMapOnRDD(t *testing.T) {
	e := newTestEngine()
	st, err := e.Compile(`parallelize(1 to 100) ! ($$ + 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsParallel() {
		t.Error("simple map over an RDD should stay parallel")
	}
	out, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 || int64(out[0].(Int)) != 2 || int64(out[99].(Int)) != 101 {
		t.Errorf("simple map RDD = %d items, first %v", len(out), out[0])
	}
}

func TestDeepEqualFunction(t *testing.T) {
	e := newTestEngine()
	cases := map[string]string{
		`deep-equal({"a": [1, 2]}, {"a": [1, 2]})`:       "true",
		`deep-equal({"a": 1, "b": 2}, {"b": 2, "a": 1})`: "true",
		`deep-equal([1], [1, 1])`:                        "false",
		`deep-equal((1, 2), (1, 2))`:                     "true",
		`deep-equal((1, 2), (2, 1))`:                     "false",
		`deep-equal((), ())`:                             "true",
		`deep-equal(2, 2.0)`:                             "true",
	}
	for q, want := range cases {
		if got := runOne(t, e, q); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

// TestRandomizedLocalVsParallelEquivalence is the central data-independence
// property, fuzzed: random heterogeneous datasets must produce identical
// results locally and on the cluster for a set of query shapes.
func TestRandomizedLocalVsParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	genDoc := func() string {
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf(`{"k": %d, "v": %d}`, rng.Intn(5), rng.Intn(100))
		case 1:
			return fmt.Sprintf(`{"k": "s%d", "v": %d}`, rng.Intn(3), rng.Intn(100))
		case 2:
			return fmt.Sprintf(`{"k": [%d, %d], "v": %d}`, rng.Intn(3), rng.Intn(3), rng.Intn(100))
		case 3:
			return fmt.Sprintf(`{"v": %d}`, rng.Intn(100)) // k absent
		default:
			return fmt.Sprintf(`{"k": null, "v": %d.%d}`, rng.Intn(10), rng.Intn(99))
		}
	}
	queries := []string{
		`for $o in json-file(%q) where $o.v ge 50 return $o.v`,
		`for $o in json-file(%q) group by $k := ($o.k[], $o.k, "none")[1] order by string($k) return { "k": $k, "n": count($o), "sum": sum($o.v) }`,
		`for $o in json-file(%q) order by $o.v descending, ($o.k[], $o.k, "zz")[1] ascending count $c where $c le 7 return $o.v`,
		`count(json-file(%q)[$$.v lt 25])`,
		// Error paths: whichever tuple raises first, the text is one and the
		// same on every backend. An order key that is a string here and a
		// number there, a key that is an array or a whole sequence, a
		// grouping key that is an array, a division by zero.
		`for $o in json-file(%q) where not($o.k instance of array) order by $o.k return $o.v`,
		`for $o in json-file(%q) order by $o.k return $o.v`,
		`for $o in json-file(%q) where $o.k instance of array order by $o.k[] return $o.v`,
		`for $o in json-file(%q) where $o.k instance of array group by $k := $o.k[] return $k`,
		`for $o in json-file(%q) group by $k := $o.k return count($o)`,
		`for $o in json-file(%q) let $r := 100 idiv ($o.v idiv 50) group by $r order by $r return [$r, count($o)]`,
		// Absent and heterogeneous keys, ordered with the empty sequence at
		// either end.
		`for $o in json-file(%q) where not($o.k instance of array) and not($o.k instance of string)
		 order by $o.k descending empty greatest, $o.v return [$o.k, $o.v]`,
		`for $o in json-file(%q) let $k := $o.k[[1]] group by $k order by $k empty greatest return [$k, count($o), $o[1].v]`,
		// Conditions read as booleans: an empty operand is false, a general
		// comparison skips incomparable pairs, and/or short-circuit before
		// an error, and an error in the left operand is raised first.
		`for $o in json-file(%q) where $o.missing eq 1 or (not($o.missing eq 1) and $o.v lt 20) return $o.v`,
		`for $o in json-file(%q) where $o.k = ("s1", 2, null) return [$o.k, $o.v]`,
		`for $o in json-file(%q) where $o.v lt 30 or (false and ($o.v idiv 0 eq 1)) return $o.v`,
		`for $o in json-file(%q) where $o.v ge 90 and (true or ($o.v idiv 0 eq 1)) return $o.v`,
		`for $o in json-file(%q) where ($o.v idiv 0 eq 1) and false return $o.v`,
	}
	// Group-bys whose emit order is the backend's: compared as multisets.
	unordered := []string{
		`for $o in json-file(%q) where not($o.k instance of array) group by $k := $o.k, $big := $o.v ge 50 return [$k, $big, count($o), sum($o.v)]`,
		`for $o in json-file(%q) for $m allowing empty at $p in $o.k[] group by $m, $p return [$m, $p, count($o)]`,
	}
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "data.jsonl")
		var sb strings.Builder
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			sb.WriteString(genDoc())
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		parallel := New(Config{Parallelism: 4, Executors: 4, SplitSize: 512})
		local := New(Config{})
		local.env.Spark = nil
		for _, tmpl := range queries {
			checkModesAgree(t, parallel, local, fmt.Sprintf(tmpl, path), false)
		}
		for _, tmpl := range unordered {
			checkModesAgree(t, parallel, local, fmt.Sprintf(tmpl, path), true)
		}
	}
}

// Property: count(filter p) + count(filter not p) == count(all) through
// full JSONiq queries.
func TestFilterPartitionProperty(t *testing.T) {
	e := newTestEngine()
	f := func(limit uint8) bool {
		n := int(limit)%200 + 1
		q1 := fmt.Sprintf(`count(for $x in parallelize(1 to %d) where $x mod 3 eq 0 return $x)`, n)
		q2 := fmt.Sprintf(`count(for $x in parallelize(1 to %d) where not($x mod 3 eq 0) return $x)`, n)
		a, err1 := e.Query(q1)
		b, err2 := e.Query(q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return int64(a[0].(Int))+int64(b[0].(Int)) == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: group-by partitions the input: group counts sum to the input
// size for arbitrary modulus keys.
func TestGroupByPartitionProperty(t *testing.T) {
	e := newTestEngine()
	f := func(limit, mod uint8) bool {
		n := int(limit)%300 + 1
		m := int(mod)%7 + 2
		q := fmt.Sprintf(`sum(for $x in parallelize(1 to %d) group by $k := $x mod %d return count($x))`, n, m)
		out, err := e.Query(q)
		if err != nil {
			return false
		}
		return int64(out[0].(Int)) == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: order-by emits a permutation (count preserved, multiset equal).
func TestOrderByPermutationProperty(t *testing.T) {
	e := newTestEngine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		vals := make([]string, n)
		var sum int64
		for i := range vals {
			v := rng.Intn(50)
			sum += int64(v)
			vals[i] = fmt.Sprint(v)
		}
		q := fmt.Sprintf(`sum(for $x in parallelize((%s)) order by $x return $x)`, strings.Join(vals, ","))
		out, err := e.Query(q)
		if err != nil {
			return false
		}
		return int64(out[0].(Int)) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestUDFErrorInsideParallelQuery(t *testing.T) {
	// failure injection: a UDF raising an error inside a DataFrame UDF must
	// abort the whole job with that error, not hang or panic.
	e := newTestEngine()
	q := `
	declare function local:check($x) {
	  if ($x eq 57) then error("bad record 57") else $x
	};
	for $x in parallelize(1 to 100) return local:check($x)`
	_, err := e.Query(q)
	if err == nil || !strings.Contains(err.Error(), "bad record 57") {
		t.Errorf("err = %v, want the injected failure", err)
	}
}

func TestErrorInsideOrderKeyAborts(t *testing.T) {
	e := newTestEngine()
	q := `for $x in parallelize((1, 2, 0)) order by (10 div $x) return $x`
	if _, err := e.Query(q); err == nil {
		t.Error("division by zero in an order key should abort")
	}
}

func TestTryCatchAroundParallelFailure(t *testing.T) {
	e := newTestEngine()
	got := runOne(t, e, `
	try {
	  sum(for $x in parallelize((1, 2, 0)) return 10 idiv $x)
	} catch * { "rescued" }`)
	if got != `"rescued"` {
		t.Errorf("try/catch over cluster failure = %s", got)
	}
}

func TestWriteToFailurePropagates(t *testing.T) {
	e := newTestEngine()
	st, err := e.Compile(`parallelize(1 to 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteTo("/proc/definitely/not/writable"); err == nil {
		t.Error("writing to an unwritable directory should error")
	}
}

func TestDeeplyNestedNavigation(t *testing.T) {
	e := newTestEngine()
	depth := 40
	doc := strings.Repeat(`{"n":`, depth) + "42" + strings.Repeat("}", depth)
	if err := e.RegisterJSON("deep", []string{doc}); err != nil {
		t.Fatal(err)
	}
	q := `collection("deep")` + strings.Repeat(".n", depth)
	if got := runOne(t, e, q); got != "42" {
		t.Errorf("deep navigation = %s", got)
	}
}

func TestLargeGroupCardinality(t *testing.T) {
	// one group per element: stresses the shuffle with maximal key count
	e := newTestEngine()
	got := runOne(t, e, `count(for $x in parallelize(1 to 5000) group by $k := $x return $k)`)
	if got != "5000" {
		t.Errorf("distinct groups = %s", got)
	}
}

func TestStringsWithSeparatorBytesInGroupKeys(t *testing.T) {
	// Group keys containing the encoding's separator control characters
	// must not collide ("x\u001f" + "y" versus "x" + "\u001fy").
	e := newTestEngine()
	if err := e.RegisterJSON("tricky", []string{
		`{"a": "x\u001f", "b": "y"}`,
		`{"a": "x", "b": "\u001fy"}`,
	}); err != nil {
		t.Fatal(err)
	}
	got := runOne(t, e, `count(for $o in collection("tricky") group by $a := $o.a, $b := $o.b return 1)`)
	if got != "2" {
		t.Errorf("separator-byte keys collapsed: %s groups", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	e := newTestEngine()
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runOne(t, e, fmt.Sprintf(`count(json-file(%q))`, path)); got != "0" {
		t.Errorf("count of empty file = %s", got)
	}
	out := run(t, e, fmt.Sprintf(`for $o in json-file(%q) group by $k := $o.x return $k`, path))
	if len(out) != 0 {
		t.Errorf("group over empty input = %v", out)
	}
}

func TestConcurrentQueriesOnOneEngine(t *testing.T) {
	e := newTestEngine()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			out, err := e.Query(fmt.Sprintf(`sum(parallelize(1 to %d))`, 100+i))
			if err == nil {
				want := int64((100 + i) * (101 + i) / 2)
				if int64(out[0].(Int)) != want {
					err = fmt.Errorf("goroutine %d: sum = %v, want %d", i, out[0], want)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestCompiledStatementReuse(t *testing.T) {
	e := newTestEngine()
	if err := e.RegisterJSON("r", []string{`{"v": 1}`, `{"v": 2}`}); err != nil {
		t.Fatal(err)
	}
	st, err := e.Compile(`sum(collection("r").v)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out, err := st.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if int64(out[0].(Int)) != 3 {
			t.Fatalf("run %d: %v", i, out[0])
		}
	}
}

func TestShadowingAcrossClauses(t *testing.T) {
	e := newTestEngine()
	got := strings.Join(run(t, e, `
		for $x in (1, 2)
		let $x := $x * 10
		let $x := $x + 1
		return $x`), "\n")
	if got != "11\n21" {
		t.Errorf("shadowing = %s", got)
	}
}

func TestGroupByAfterCountClause(t *testing.T) {
	e := newTestEngine()
	got := strings.Join(run(t, e, `
		for $x in parallelize(1 to 10)
		count $c
		group by $parity := $c mod 2
		order by $parity
		return { "p": $parity, "n": count($x) }`), "\n")
	want := `{"p" : 0, "n" : 5}` + "\n" + `{"p" : 1, "n" : 5}`
	if got != want {
		t.Errorf("group after count = %s", got)
	}
}

func TestWhereBetweenGroupAndOrder(t *testing.T) {
	// having-style filtering after group by
	e := newTestEngine()
	got := strings.Join(run(t, e, `
		for $x in parallelize(1 to 100)
		group by $k := $x mod 10
		where count($x) ge 10
		order by $k
		return $k`), "\n")
	if len(strings.Split(got, "\n")) != 10 {
		t.Errorf("having filter = %s", got)
	}
}
