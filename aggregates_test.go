package rumble

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumble/internal/item"
)

// aggregateInputs is the messy JSON-Lines corpus the aggregate folds must
// agree on, each with the expression aggregated over its rows $o.
var aggregateInputs = []struct {
	name  string
	lines []string
	expr  string
}{
	{"single string", []string{`{"x":"a"}`}, "$o.x"},
	{"two strings", []string{`{"x":"a"}`, `{"x":"b"}`}, "$o.x"},
	{"int then string", []string{`{"x":1}`, `{"x":"a"}`}, "$o.x"},
	{"object", []string{`{"x":{"a":1}}`}, "$o.x"},
	{"null", []string{`{"x":null}`}, "$o.x"},
	{"absent fields", []string{`{"y":1}`, `{"x":1}`, `{}`, `{"x":3}`}, "$o.x"},
	// JSON text has no NaN, so a division makes one. It comes last: min and
	// max keep the earlier value on a NaN tie, so a NaN ahead of the other
	// values would let the partition cuts pick the answer.
	{"NaN and -0.0", []string{`{"x":-0.0e0,"d":1e0}`, `{"x":1e0,"d":1e0}`, `{"x":0e0,"d":0e0}`}, "$o.x div $o.d"},
	{"int64 overflow", []string{`{"x":9223372036854775807}`, `{"x":1}`}, "$o.x"},
	{"decimals", []string{`{"x":0.1}`, `{"x":0.2}`, `{"x":3}`}, "$o.x"},
	{"empty input", nil, "$o.x"},
}

// aggregateCalls are the aggregates under test, %s standing for the
// argument.
var aggregateCalls = []string{"count(%s)", "sum(%s)", "sum(%s, 42)", "avg(%s)", "min(%s)", "max(%s)"}

// aggregateEngine is one backend of the aggregate differential. The engines
// of one family cut their input alike at every worker count.
type aggregateEngine struct {
	name, family string
	eng          *Engine
}

// aggregateEngines returns the Spark-less reference first; then the cluster
// at Executors 1, 2 and 8, where an aggregate over the file pushes down to
// a spark.Aggregate and 4-byte splits cut every input line into a
// partition of its own; then the vector backend over the raw scan and over
// segments, also at 1, 2 and 8 morsel workers.
func aggregateEngines() []aggregateEngine {
	local := New(Config{})
	local.env.Spark = nil
	engines := []aggregateEngine{{"spark-less", "local", local}}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines, aggregateEngine{fmt.Sprintf("cluster x%d", w), "cluster",
			New(Config{Parallelism: 2, Executors: w, SplitSize: 4})})
	}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines,
			aggregateEngine{fmt.Sprintf("vector x%d", w), "vector", New(Config{Executors: w, Vectorize: true})},
			aggregateEngine{fmt.Sprintf("vector+segments x%d", w), "vector", New(Config{Executors: w, Vectorize: true, Segments: true})})
	}
	return engines
}

// writeAggregateInput writes lines as a JSON-Lines file in a fresh
// directory and returns its path.
func writeAggregateInput(t testing.TB, lines []string) string {
	t.Helper()
	text := strings.Join(lines, "\n")
	if len(lines) > 0 {
		text += "\n"
	}
	path := filepath.Join(t.TempDir(), "in.jsonl")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkAggregatesAgree runs every aggregate call over the file at path, as
// a grand aggregate and grouped under one constant key, on every engine,
// and requires the first engine's items or error text from all of them.
// Two answers may follow where the partials are cut, so they are held to
// the first engine of their own family instead — the same cuts at another
// worker count: a double-valued sum or average (float addition is not
// associative) and, with mixedOrder, min and max over values no single
// order covers.
func checkAggregatesAgree(t *testing.T, engines []aggregateEngine, path, expr string, mixedOrder bool) {
	t.Helper()
	for _, call := range aggregateCalls {
		name := call[:strings.IndexByte(call, '(')]
		vectorized := !strings.Contains(call, ",") // the vector backend folds one-argument calls
		for _, q := range []string{
			fmt.Sprintf(call, fmt.Sprintf("for $o in json-file(%q) return %s", path, expr)),
			fmt.Sprintf("for $o in json-file(%q) let $v := %s group by $g := true return %s", path, expr, fmt.Sprintf(call, "$v")),
		} {
			var ref string
			var refDouble bool
			familyRef := map[string]string{}
			for i, e := range engines {
				st, err := e.eng.Compile(q)
				if err != nil {
					t.Fatalf("%s: %v\nquery: %s", e.name, err, q)
				}
				if vectorized && e.family == "vector" && st.Mode() != "Vector" {
					t.Fatalf("%s: mode %s, want Vector\nquery: %s", e.name, st.Mode(), q)
				}
				items, err := st.Collect()
				got := item.SerializeSequence(items)
				if err != nil {
					got = "error: " + err.Error()
				}
				double := err == nil && len(items) == 1 && items[0].Kind() == item.KindDouble
				if i == 0 {
					ref, refDouble = got, double
				}
				want := ref
				if ((name == "sum" || name == "avg") && refDouble && double) || ((name == "min" || name == "max") && mixedOrder) {
					if _, seen := familyRef[e.family]; !seen {
						familyRef[e.family] = got
					}
					want = familyRef[e.family]
				}
				if got != want {
					t.Errorf("%s: %s\nwant: %s\nquery: %s", e.name, got, want, q)
				}
			}
		}
	}
}

// TestAggregatesAgree holds count, sum (with and without a default), avg,
// min and max to one answer or one error text on every backend: the
// Spark-less local fold, cluster pushdown at Executors 1, 2 and 8, and the
// vector backend, as a grand aggregate and grouped, over the raw scan and
// over segments.
func TestAggregatesAgree(t *testing.T) {
	engines := aggregateEngines()
	for _, in := range aggregateInputs {
		t.Run(in.name, func(t *testing.T) {
			checkAggregatesAgree(t, engines, writeAggregateInput(t, in.lines), in.expr, false)
		})
	}
}

// aggregateRows is the fuzzer's row vocabulary, each row with the
// comparison class of its value: "" for none (null compares with
// anything, an absent value is not folded).
var aggregateRows = []struct{ line, class string }{
	{`{"x":"a"}`, "string"}, {`{"x":"b"}`, "string"},
	{`{"x":1}`, "number"}, {`{"x":3}`, "number"}, {`{"x":-7}`, "number"},
	{`{"x":9223372036854775807}`, "number"}, {`{"x":-9223372036854775808}`, "number"},
	{`{"x":0.1}`, "number"}, {`{"x":0.2}`, "number"}, {`{"x":1.0}`, "number"},
	{`{"x":-0.0e0}`, "number"}, {`{"x":2.5e0}`, "number"}, {`{"x":1e300}`, "number"},
	{`{"x":true}`, "boolean"},
	{`{"x":{"a":1}}`, "object"}, {`{"x":[1]}`, "array"},
	{`{"x":null}`, ""}, {`{"y":1}`, ""}, {`{}`, ""},
}

// FuzzAggregatesAgree draws inputs of up to 64 rows from aggregateRows,
// seeded with the inputs of aggregateInputs the vocabulary spells, and
// holds them to the checks of TestAggregatesAgree — min and max too
// whenever the values share one comparison class.
func FuzzAggregatesAgree(f *testing.F) {
	engines := aggregateEngines()
	index := map[string]byte{}
	for i, r := range aggregateRows {
		index[r.line] = byte(i)
	}
	for _, in := range aggregateInputs {
		seed, ok := []byte{}, in.expr == "$o.x"
		for _, line := range in.lines {
			b, found := index[line]
			seed, ok = append(seed, b), ok && found
		}
		if ok {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, picks []byte) {
		if len(picks) > 64 {
			picks = picks[:64]
		}
		lines := make([]string, len(picks))
		classes := map[string]bool{}
		for i, b := range picks {
			r := aggregateRows[int(b)%len(aggregateRows)]
			lines[i] = r.line
			if r.class != "" {
				classes[r.class] = true
			}
		}
		mixed := len(classes) > 1 || classes["object"] || classes["array"]
		checkAggregatesAgree(t, engines, writeAggregateInput(t, lines), "$o.x", mixed)
	})
}

// TestExistenceAgrees holds exists and empty to one answer on every
// backend when a row past the first match fails the filter: the first
// surviving row decides the test, so the failing row must never turn it
// into an error. The Spark-less fold streams and stops at the first item,
// the cluster takes one, and a vector existence fold whose morsels fail
// re-runs through its tuple fallback — whether the failing row shares the
// first morsel with the match (row 2) or lies in a later one (row 1500),
// at 1, 2 and 8 workers, over the raw scan and over segments. count(...)
// eq 0 reads every row, so the failing row fails it on every backend with
// one error, its count still a vector grand aggregate.
func TestExistenceAgrees(t *testing.T) {
	local := New(Config{})
	local.env.Spark = nil
	engines := []aggregateEngine{{"spark-less", "local", local}}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines,
			aggregateEngine{fmt.Sprintf("cluster x%d", w), "cluster", New(Config{Parallelism: 2, Executors: w})},
			aggregateEngine{fmt.Sprintf("vector x%d", w), "vector", New(Config{Executors: w, Vectorize: true})},
			aggregateEngine{fmt.Sprintf("vector+segments x%d", w), "vector",
				New(Config{Executors: w, Vectorize: true, Segments: true})})
	}
	for _, bad := range []int{2, 1500} {
		lines := make([]string, 3000)
		for i := range lines {
			lines[i] = fmt.Sprintf(`{"a":%d}`, i)
		}
		lines[bad-1] = `{"a":"x"}`
		path := writeAggregateInput(t, lines)
		flwor := fmt.Sprintf(`for $x in json-file(%q) where $x.a + 1 gt 0 return $x`, path)
		for _, tc := range []struct{ query, mode, want string }{
			{"exists(%s)", "Vector", "true"},
			{"empty(%s)", "Vector", "false"},
			{"count(%s) eq 0", "Local", ""}, // the error the first engine gives
		} {
			q := fmt.Sprintf(tc.query, flwor)
			want := tc.want
			for _, e := range engines {
				st, err := e.eng.Compile(q)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if e.family == "vector" {
					if plan, err := e.eng.Explain(q); st.Mode() != tc.mode || err != nil || !strings.Contains(plan, "[Vector") {
						t.Fatalf("%s: mode %s, want %s over a vector pipeline; plan (err %v):\n%s", e.name, st.Mode(), tc.mode, err, plan)
					}
				}
				items, err := st.Collect()
				got := item.SerializeSequence(items)
				if err != nil {
					got = "error: " + err.Error()
				}
				if want == "" {
					if !strings.HasPrefix(got, "error: ") {
						t.Fatalf("%s: %s with the failing row at %d = %s, want an error", e.name, q, bad, got)
					}
					want = got
				}
				if got != want {
					t.Errorf("%s: %s with the failing row at %d = %s, want %s", e.name, tc.query, bad, got, want)
				}
			}
		}
	}
}

// TestGroupKeyErrorsAgree holds a non-atomic grouping key to one error text,
// naming the key's variable, on every backend: the Spark-less fold, the
// cluster's map-side group tables at Executors 1, 2 and 8, and the vector
// hash table over the raw scan and over segments.
func TestGroupKeyErrorsAgree(t *testing.T) {
	engines := aggregateEngines()
	for _, c := range []struct{ bad, kind string }{{`{"a":1}`, "object"}, {`[1]`, "array"}} {
		path := writeAggregateInput(t, []string{`{"x":1}`, `{"x":"a"}`, `{"x":` + c.bad + `}`, `{"x":2}`})
		for _, q := range []struct{ text, want string }{
			{`for $o in json-file(%q) group by $k := $o.x return count($o)`,
				"error: group by: key $k binds a non-atomic " + c.kind + " item"},
			{`for $o in json-file(%q) group by $g := true, $key2 := $o.x return count($o)`,
				"error: group by: key $key2 binds a non-atomic " + c.kind + " item"},
		} {
			query := fmt.Sprintf(q.text, path)
			for _, e := range engines {
				st, err := e.eng.Compile(query)
				if err != nil {
					t.Fatalf("%s: %v\nquery: %s", e.name, err, query)
				}
				if want := map[string]string{"cluster": "DataFrame", "vector": "Vector"}[e.family]; want != "" && st.Mode() != want {
					t.Fatalf("%s: mode %s, want %s\nquery: %s", e.name, st.Mode(), want, query)
				}
				if got := answer(e.eng, query); got != q.want {
					t.Errorf("%s: %s\nwant: %s\nquery: %s", e.name, got, q.want, query)
				}
			}
		}
	}
}
