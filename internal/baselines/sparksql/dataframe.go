package sparksql

import (
	"cmp"
	"fmt"
	"strconv"

	"rumble/internal/item"
	"rumble/internal/spark"
)

// colType is the static type of a DataFrame column.
type colType int

// Column types. colSeq carries a JSONiq sequence of items — the paper's
// "List of Items" column type; the others are Spark SQL's native types.
const (
	colSeq    colType = iota // []item.Item
	colInt                   // int64
	colString                // string
	colDouble                // float64
)

// column is a named, typed DataFrame column.
type column struct {
	name string
	typ  colType
}

// schema is the ordered column list of a DataFrame.
type schema struct {
	cols []column
}

// indexOf returns the position of the named column, or -1.
func (s schema) indexOf(name string) int {
	for i, c := range s.cols {
		if c.name == name {
			return i
		}
	}
	return -1
}

// row is one DataFrame record; cell i holds a value of the schema's column
// type i ([]item.Item, int64, string or float64).
type row []any

// seq returns cell i as a sequence; a nil cell is the empty sequence.
func (r row) seq(i int) []item.Item {
	s, _ := r[i].([]item.Item)
	return s
}

// dataFrame is a typed, partitioned table built on an RDD of rows: the
// Spark SQL stand-in of this baseline — extended projections with UDFs,
// selections, hash aggregation and total-order sort over native typed
// columns.
type dataFrame struct {
	schema schema
	rows   *spark.RDD[row]
}

// withColumn appends a column computed by udf from each input row — an
// extended projection (SELECT a, b, EVALUATE_EXPRESSION(a, b) AS c).
func (df *dataFrame) withColumn(name string, t colType, udf func(row) (any, error)) *dataFrame {
	s := schema{cols: append(append([]column{}, df.schema.cols...), column{name: name, typ: t})}
	rows := spark.MapE(df.rows, func(r row) (row, error) {
		v, err := udf(r)
		if err != nil {
			return nil, err
		}
		out := make(row, len(r)+1)
		copy(out, r)
		out[len(r)] = v
		return out, nil
	})
	return &dataFrame{schema: s, rows: rows}
}

// where keeps the rows for which pred is true.
func (df *dataFrame) where(pred func(row) (bool, error)) *dataFrame {
	return &dataFrame{schema: df.schema, rows: spark.FilterE(df.rows, pred)}
}

// sortSpec describes one ORDER BY key over native columns.
type sortSpec struct {
	col        string
	descending bool
}

// orderBy globally sorts the DataFrame by the given native-typed columns.
func (df *dataFrame) orderBy(specs []sortSpec) (*dataFrame, error) {
	type colRef struct {
		idx  int
		desc bool
	}
	refs := make([]colRef, len(specs))
	for i, s := range specs {
		j := df.schema.indexOf(s.col)
		if j < 0 {
			return nil, fmt.Errorf("dataframe: unknown sort column %q", s.col)
		}
		if df.schema.cols[j].typ == colSeq {
			return nil, fmt.Errorf("dataframe: cannot sort on sequence column %q", s.col)
		}
		refs[i] = colRef{idx: j, desc: s.descending}
	}
	less := func(a, b row) bool {
		for _, ref := range refs {
			c := compareNative(a[ref.idx], b[ref.idx])
			if c == 0 {
				continue
			}
			if ref.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	return &dataFrame{schema: df.schema, rows: spark.SortBy(df.rows, less)}, nil
}

// compareNative orders two cells of the same native column type.
func compareNative(a, b any) int {
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case string:
		return cmp.Compare(x, b.(string))
	case float64:
		return cmp.Compare(x, b.(float64))
	}
	return 0
}

// agg is one aggregation of a groupBy: SQL's COUNT() over the items of
// sequence column col, computed without materializing them.
type agg struct {
	col string
	as  string // output column name
}

// groupBy hash-groups rows by the named native-typed key columns and
// counts each aggregated sequence column per group. The key columns are
// preserved in the output; the counts follow in agg order.
func (df *dataFrame) groupBy(keyCols []string, aggs []agg) (*dataFrame, error) {
	keyIdx := make([]int, len(keyCols))
	outCols := make([]column, 0, len(keyCols)+len(aggs))
	for i, n := range keyCols {
		j := df.schema.indexOf(n)
		if j < 0 {
			return nil, fmt.Errorf("dataframe: unknown group column %q", n)
		}
		if df.schema.cols[j].typ == colSeq {
			return nil, fmt.Errorf("dataframe: cannot group on sequence column %q", n)
		}
		keyIdx[i] = j
		outCols = append(outCols, df.schema.cols[j])
	}
	counted := make([]int, 0, len(aggs)) // column index per aggregation
	for _, a := range aggs {
		j := df.schema.indexOf(a.col)
		if j < 0 {
			return nil, fmt.Errorf("dataframe: unknown aggregation column %q", a.col)
		}
		outCols = append(outCols, column{name: a.as, typ: colInt})
		counted = append(counted, j)
	}
	encodeKey := func(r row) string {
		var buf []byte
		for _, j := range keyIdx {
			if str, ok := r[j].(string); ok {
				buf = strconv.AppendQuote(buf, str)
			} else {
				buf = fmt.Append(buf, r[j]) // int64 or float64, shortest form
			}
			buf = append(buf, 0x1f)
		}
		return string(buf)
	}
	pairs := spark.Map(df.rows, func(r row) spark.Pair[string, row] {
		return spark.Pair[string, row]{Key: encodeKey(r), Value: r}
	})
	outRows := spark.Map(spark.GroupByKey(pairs), func(kv spark.Pair[string, []row]) row {
		group := kv.Value
		out := make(row, 0, len(keyIdx)+len(counted))
		for _, j := range keyIdx {
			out = append(out, group[0][j])
		}
		for _, j := range counted {
			var n int64
			for _, r := range group {
				n += int64(len(r.seq(j)))
			}
			out = append(out, n)
		}
		return out
	})
	return &dataFrame{schema: schema{cols: outCols}, rows: outRows}, nil
}
