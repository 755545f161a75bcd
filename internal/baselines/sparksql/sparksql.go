// Package sparksql is the "Spark SQL" baseline: the three standard queries
// over DataFrames with native typed columns, preceded by the schema
// inference pass that spark.read.json performs (a sampling scan that
// discovers column names and types — the cost Rumble's filter query
// avoids, per §6.2). Heterogeneous columns degrade to strings exactly as
// Figure 6 shows.
package sparksql

import (
	"fmt"
	"sort"

	"rumble/internal/baselines"
	"rumble/internal/item"
	"rumble/internal/spark"
)

// Engine runs hand-coded DataFrame programs.
type Engine struct {
	sc        *spark.Context
	splitSize int64
}

// New returns the baseline over the given cluster context.
func New(sc *spark.Context, splitSize int64) *Engine {
	return &Engine{sc: sc, splitSize: splitSize}
}

// Name implements baselines.Engine.
func (e *Engine) Name() string { return "SparkSQL" }

// inferredColumns are the confusion-dataset fields the schema inference
// discovers and the typed frame carries.
var inferredColumns = []string{"guess", "target", "country", "date"}

// Run implements baselines.Engine.
func (e *Engine) Run(q baselines.Query, path string) (baselines.Result, error) {
	df, err := e.readJSON(path)
	if err != nil {
		return baselines.Result{}, err
	}
	switch q {
	case baselines.QueryFilter:
		return e.filter(df)
	case baselines.QueryGroup:
		return e.group(df)
	case baselines.QuerySort:
		return e.sort(df)
	default:
		return baselines.Result{}, fmt.Errorf("sparksql: unknown query %v", q)
	}
}

// readJSON mimics spark.read.json: a schema inference pass over the data,
// then a typed scan projecting each record onto native string columns.
// Values whose type does not match are forced to strings (Figure 6).
func (e *Engine) readJSON(path string) (*dataFrame, error) {
	items, err := baselines.ItemsRDD(e.sc, path, e.splitSize)
	if err != nil {
		return nil, err
	}
	// Schema inference: scan the dataset once, unioning the key sets.
	// (Spark samples by default but falls back to a full pass for exact
	// schemas; we model the full pass, which the paper's measurements
	// reflect in Spark SQL's higher filter-query cost.)
	keysets := spark.Map(items, func(it item.Item) string {
		obj, ok := it.(*item.Object)
		if !ok {
			return ""
		}
		var sig []byte
		for _, k := range obj.Keys() {
			sig = append(sig, k...)
			sig = append(sig, ',')
		}
		return string(sig)
	})
	if _, _, err := spark.Reduce(keysets, func(a, b string) string {
		if len(a) >= len(b) {
			return a
		}
		return b
	}); err != nil {
		return nil, err
	}
	// Typed scan: project onto native string columns.
	cols := make([]column, len(inferredColumns))
	for i, c := range inferredColumns {
		cols[i] = column{name: c, typ: colString}
	}
	rows := spark.Map(items, func(it item.Item) row {
		r := make(row, len(inferredColumns))
		for i, c := range inferredColumns {
			r[i] = baselines.FieldString(it, c)
		}
		return r
	})
	return &dataFrame{schema: schema{cols: cols}, rows: rows}, nil
}

// guessedRight is the WHERE guess = target predicate of the filter and
// sort queries.
func guessedRight(r row) (bool, error) {
	return r[0].(string) == r[1].(string) && r[0].(string) != "", nil
}

// filter is SELECT COUNT(*) WHERE guess = target.
func (e *Engine) filter(df *dataFrame) (baselines.Result, error) {
	n, err := spark.Count(df.where(guessedRight).rows)
	if err != nil {
		return baselines.Result{}, err
	}
	return baselines.Result{Count: n}, nil
}

// group is SELECT country, target, COUNT(*) GROUP BY country, target.
func (e *Engine) group(df *dataFrame) (baselines.Result, error) {
	// COUNT(*) as the count of a constant-1 sequence column.
	ones := df.withColumn("one", colSeq, func(row) (any, error) {
		return []item.Item{item.Int(1)}, nil
	})
	grouped, err := ones.groupBy([]string{"country", "target"}, []agg{{col: "one", as: "n"}})
	if err != nil {
		return baselines.Result{}, err
	}
	collected, err := spark.Collect(grouped.rows)
	if err != nil {
		return baselines.Result{}, err
	}
	rows := make([]string, len(collected))
	for i, r := range collected {
		rows[i] = fmt.Sprintf("%s,%s,%d", r[0].(string), r[1].(string), r[2].(int64))
	}
	sort.Strings(rows)
	return baselines.Result{Count: int64(len(rows)), Rows: rows}, nil
}

// sort is Figure 3: SELECT * WHERE guess = target ORDER BY target ASC,
// country DESC, date DESC, then take(10).
func (e *Engine) sort(df *dataFrame) (baselines.Result, error) {
	sorted, err := df.where(guessedRight).orderBy([]sortSpec{
		{col: "target"},
		{col: "country", descending: true},
		{col: "date", descending: true},
	})
	if err != nil {
		return baselines.Result{}, err
	}
	top, err := spark.Take(sorted.rows, baselines.SortTopN)
	if err != nil {
		return baselines.Result{}, err
	}
	rows := make([]string, len(top))
	for i, r := range top {
		rows[i] = fmt.Sprintf("%s,%s,%s", r[1].(string), r[2].(string), r[3].(string))
	}
	return baselines.Result{Count: int64(len(rows)), Rows: rows}, nil
}
