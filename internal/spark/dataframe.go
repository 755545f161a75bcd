package spark

import (
	"fmt"
	"strconv"

	"rumble/internal/item"
)

// ColType is the static type of a DataFrame column.
type ColType int

// Column types. ColSeq carries a JSONiq sequence of items — the paper's
// "List of Items" column type; the others are Spark SQL's native types.
const (
	ColSeq    ColType = iota // []item.Item
	ColInt                   // int64
	ColString                // string
	ColDouble                // float64
)

// Column is a named, typed DataFrame column.
type Column struct {
	Name string
	Type ColType
}

// Schema is the ordered column list of a DataFrame.
type Schema struct {
	Cols []Column
}

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Row is one DataFrame record; cell i holds a value of the schema's column
// type i ([]item.Item, int64, string or float64).
type Row []any

// Seq returns cell i as a sequence.
func (r Row) Seq(i int) []item.Item {
	if r[i] == nil {
		return nil
	}
	return r[i].([]item.Item)
}

// DataFrame is a typed, partitioned table built on an RDD of rows. It
// stands in for Spark SQL in the paper's Fig. 11 comparator
// (internal/baselines/sparksql): extended projections with UDFs, selections,
// hash aggregation and total-order sort over native typed columns. Rumble's
// own FLWOR tuple streams do not use it; they are RDDs of runtime tuples.
type DataFrame struct {
	schema Schema
	rows   *RDD[Row]
}

// NewDataFrame wraps an RDD of rows with a schema.
func NewDataFrame(schema Schema, rows *RDD[Row]) *DataFrame {
	return &DataFrame{schema: schema, rows: rows}
}

// Schema returns the schema.
func (df *DataFrame) Schema() Schema { return df.schema }

// RDD returns the underlying row RDD.
func (df *DataFrame) RDD() *RDD[Row] { return df.rows }

// WithColumn appends a column computed by udf from each input row — an
// extended projection (SELECT a, b, EVALUATE_EXPRESSION(a, b) AS c).
func (df *DataFrame) WithColumn(name string, t ColType, udf func(Row) (any, error)) *DataFrame {
	schema := Schema{Cols: append(append([]Column{}, df.schema.Cols...), Column{Name: name, Type: t})}
	rows := MapE(df.rows, func(r Row) (Row, error) {
		v, err := udf(r)
		if err != nil {
			return nil, err
		}
		out := make(Row, len(r)+1)
		copy(out, r)
		out[len(r)] = v
		return out, nil
	})
	return NewDataFrame(schema, rows)
}

// Where keeps the rows for which pred is true.
func (df *DataFrame) Where(pred func(Row) (bool, error)) *DataFrame {
	return NewDataFrame(df.schema, FilterE(df.rows, pred))
}

// SortSpec describes one ORDER BY key over native columns.
type SortSpec struct {
	Col        string
	Descending bool
}

// OrderBy globally sorts the DataFrame by the given native-typed columns.
func (df *DataFrame) OrderBy(specs []SortSpec) (*DataFrame, error) {
	type colRef struct {
		idx  int
		typ  ColType
		desc bool
	}
	refs := make([]colRef, len(specs))
	for i, s := range specs {
		j := df.schema.IndexOf(s.Col)
		if j < 0 {
			return nil, fmt.Errorf("dataframe: unknown sort column %q", s.Col)
		}
		if df.schema.Cols[j].Type == ColSeq {
			return nil, fmt.Errorf("dataframe: cannot sort on sequence column %q", s.Col)
		}
		refs[i] = colRef{idx: j, typ: df.schema.Cols[j].Type, desc: s.Descending}
	}
	less := func(a, b Row) bool {
		for _, ref := range refs {
			c := compareNative(ref.typ, a[ref.idx], b[ref.idx])
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
	return NewDataFrame(df.schema, SortBy(df.rows, less)), nil
}

func compareNative(t ColType, a, b any) int {
	switch t {
	case ColInt:
		x, y := a.(int64), b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case ColString:
		x, y := a.(string), b.(string)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case ColDouble:
		x, y := a.(float64), b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	}
	return 0
}

// AggKind selects what GroupBy computes for a non-grouping column; GroupBy
// refuses a kind it does not know.
type AggKind int

// AggCount counts the items of a sequence column without materializing
// them: SQL's COUNT(). It is the one aggregation the Spark SQL baseline
// uses.
const AggCount AggKind = iota

// Agg describes one aggregation in a GroupBy.
type Agg struct {
	Col  string
	Kind AggKind
	As   string // output column name; defaults to Col
}

// GroupBy hash-groups rows by the named native-typed key columns and
// counts each aggregated sequence column per group. The key columns are
// preserved in the output; the counts follow in Agg order.
func (df *DataFrame) GroupBy(keyCols []string, aggs []Agg) (*DataFrame, error) {
	keyIdx := make([]int, len(keyCols))
	keyTypes := make([]ColType, len(keyCols))
	for i, n := range keyCols {
		j := df.schema.IndexOf(n)
		if j < 0 {
			return nil, fmt.Errorf("dataframe: unknown group column %q", n)
		}
		if df.schema.Cols[j].Type == ColSeq {
			return nil, fmt.Errorf("dataframe: cannot group on sequence column %q", n)
		}
		keyIdx[i] = j
		keyTypes[i] = df.schema.Cols[j].Type
	}
	outCols := make([]Column, 0, len(keyCols)+len(aggs))
	for i, n := range keyCols {
		outCols = append(outCols, Column{Name: n, Type: keyTypes[i]})
	}
	counted := make([]int, 0, len(aggs)) // column index per aggregation
	for _, a := range aggs {
		if a.Kind != AggCount {
			return nil, fmt.Errorf("dataframe: unknown aggregation kind %d on column %q", a.Kind, a.Col)
		}
		j := df.schema.IndexOf(a.Col)
		if j < 0 {
			return nil, fmt.Errorf("dataframe: unknown aggregation column %q", a.Col)
		}
		name := a.As
		if name == "" {
			name = a.Col
		}
		outCols = append(outCols, Column{Name: name, Type: ColInt})
		counted = append(counted, j)
	}
	encodeKey := func(r Row) string {
		var buf []byte
		for i, j := range keyIdx {
			switch keyTypes[i] {
			case ColInt:
				buf = strconv.AppendInt(buf, r[j].(int64), 10)
			case ColString:
				buf = strconv.AppendQuote(buf, r[j].(string))
			case ColDouble:
				buf = strconv.AppendFloat(buf, r[j].(float64), 'g', -1, 64)
			}
			buf = append(buf, 0x1f)
		}
		return string(buf)
	}
	pairs := Map(df.rows, func(r Row) Pair[string, Row] {
		return Pair[string, Row]{Key: encodeKey(r), Value: r}
	})
	grouped := GroupByKey(pairs)
	outRows := Map(grouped, func(kv Pair[string, []Row]) Row {
		group := kv.Value
		out := make(Row, 0, len(keyIdx)+len(counted))
		for _, j := range keyIdx {
			out = append(out, group[0][j])
		}
		for _, j := range counted {
			var n int64
			for _, r := range group {
				n += int64(len(r.Seq(j)))
			}
			out = append(out, n)
		}
		return out
	})
	return NewDataFrame(Schema{Cols: outCols}, outRows), nil
}

// Collect materializes all rows on the driver.
func (df *DataFrame) Collect() ([]Row, error) { return Collect(df.rows) }

// Count returns the number of rows.
func (df *DataFrame) Count() (int64, error) { return Count(df.rows) }
