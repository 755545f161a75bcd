// Package rawspark is the "Spark (Java)" baseline of the paper's
// evaluation: the three standard queries hand-written directly against the
// RDD API, the way an experienced Spark developer would (Figure 2's style),
// with no query-language layer on top.
package rawspark

import (
	"fmt"
	"sort"

	"rumble/internal/baselines"
	"rumble/internal/item"
	"rumble/internal/spark"
)

// Engine runs hand-coded RDD programs.
type Engine struct {
	sc        *spark.Context
	splitSize int64
}

// New returns the baseline over the given cluster context.
func New(sc *spark.Context, splitSize int64) *Engine {
	return &Engine{sc: sc, splitSize: splitSize}
}

// Name implements baselines.Engine.
func (e *Engine) Name() string { return "Spark" }

// Run implements baselines.Engine.
func (e *Engine) Run(q baselines.Query, path string) (baselines.Result, error) {
	items, err := baselines.ItemsRDD(e.sc, path, e.splitSize)
	if err != nil {
		return baselines.Result{}, err
	}
	switch q {
	case baselines.QueryFilter:
		return e.filter(items)
	case baselines.QueryGroup:
		return e.group(items)
	case baselines.QuerySort:
		return e.sort(items)
	default:
		return baselines.Result{}, fmt.Errorf("rawspark: unknown query %v", q)
	}
}

// filter counts objects whose guess equals their target:
// rdd.filter(o -> o.guess == o.target).count().
func (e *Engine) filter(items *spark.RDD[item.Item]) (baselines.Result, error) {
	matches := spark.Filter(items, func(it item.Item) bool {
		return baselines.FieldString(it, "guess") == baselines.FieldString(it, "target") &&
			baselines.FieldString(it, "guess") != ""
	})
	n, err := spark.Count(matches)
	if err != nil {
		return baselines.Result{}, err
	}
	return baselines.Result{Count: n}, nil
}

// group is Figure 2's aggregation: mapToPair((country, target) -> 1)
// followed by reduceByKey(+) and collect.
func (e *Engine) group(items *spark.RDD[item.Item]) (baselines.Result, error) {
	type key struct{ country, target string }
	pairs := spark.MapToPair(items, func(it item.Item) (key, int64) {
		return key{
			country: baselines.FieldString(it, "country"),
			target:  baselines.FieldString(it, "target"),
		}, 1
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
}

// sort is Figure 3's query shape on the RDD API: sortBy with a composite
// comparator, then take(10).
func (e *Engine) sort(items *spark.RDD[item.Item]) (baselines.Result, error) {
	correct := spark.Filter(items, func(it item.Item) bool {
		return baselines.FieldString(it, "guess") == baselines.FieldString(it, "target") &&
			baselines.FieldString(it, "guess") != ""
	})
	sorted := spark.SortBy(correct, func(a, b item.Item) bool {
		at, bt := baselines.FieldString(a, "target"), baselines.FieldString(b, "target")
		if at != bt {
			return at < bt
		}
		ac, bc := baselines.FieldString(a, "country"), baselines.FieldString(b, "country")
		if ac != bc {
			return ac > bc
		}
		return baselines.FieldString(a, "date") > baselines.FieldString(b, "date")
	}, nil)
	top, err := spark.Take(sorted, baselines.SortTopN)
	if err != nil {
		return baselines.Result{}, err
	}
	rows := make([]string, len(top))
	for i, it := range top {
		rows[i] = fmt.Sprintf("%s,%s,%s",
			baselines.FieldString(it, "target"),
			baselines.FieldString(it, "country"),
			baselines.FieldString(it, "date"))
	}
	return baselines.Result{Count: int64(len(rows)), Rows: rows}, nil
}
