package sparksql

import (
	"fmt"
	"testing"

	"rumble/internal/item"
	"rumble/internal/spark"
)

func seq(items ...item.Item) []item.Item { return items }

func testCtx() *spark.Context {
	return spark.NewContext(spark.Config{Parallelism: 4, Executors: 4})
}

func makeDF(t *testing.T, ctx *spark.Context, n int) *dataFrame {
	t.Helper()
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{seq(item.Int(int64(i))), seq(item.Str(fmt.Sprintf("name%d", i%3)))}
	}
	sch := schema{cols: []column{{name: "x", typ: colSeq}, {name: "name", typ: colSeq}}}
	return &dataFrame{schema: sch, rows: spark.Parallelize(ctx, rows, 4)}
}

func TestWithColumnExtendedProjection(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 10)
	df2 := df.withColumn("double", colSeq, func(r row) (any, error) {
		x := r.seq(0)[0].(item.Int)
		return seq(item.Int(int64(x) * 2)), nil
	})
	rows, err := spark.Collect(df2.rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	if df2.schema.indexOf("double") != 2 {
		t.Error("new column not appended")
	}
	for _, r := range rows {
		x := int64(r.seq(0)[0].(item.Int))
		d := int64(r.seq(2)[0].(item.Int))
		if d != 2*x {
			t.Fatalf("row %d: double = %d", x, d)
		}
	}
}

func TestWithColumnUDFErrorPropagates(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 10)
	df2 := df.withColumn("bad", colSeq, func(r row) (any, error) {
		return nil, fmt.Errorf("udf failure")
	})
	if _, err := spark.Collect(df2.rows); err == nil {
		t.Fatal("expected udf error")
	}
}

func TestWhere(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 100)
	df2 := df.where(func(r row) (bool, error) {
		return int64(r.seq(0)[0].(item.Int))%2 == 0, nil
	})
	n, err := spark.Count(df2.rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("filtered count = %d", n)
	}
}

func TestGroupByCount(t *testing.T) {
	ctx := testCtx()
	// Rows: (tag: int, payload: seq) — group by tag and count the payloads.
	var rows []row
	for i := 0; i < 90; i++ {
		rows = append(rows, row{int64(i % 3), seq(item.Int(int64(i)))})
	}
	sch := schema{cols: []column{{name: "tag", typ: colInt}, {name: "p", typ: colSeq}}}
	df := &dataFrame{schema: sch, rows: spark.Parallelize(ctx, rows, 4)}
	grouped, err := df.groupBy([]string{"tag"}, []agg{{col: "p", as: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := spark.Collect(grouped.rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d groups", len(got))
	}
	for _, r := range got {
		if n := r[1].(int64); n != 30 {
			t.Errorf("group %v has %d members", r[0], n)
		}
	}
	if grouped.schema.cols[1] != (column{name: "n", typ: colInt}) {
		t.Errorf("count column = %+v", grouped.schema.cols[1])
	}
}

func TestGroupByHeterogeneousTypedKeys(t *testing.T) {
	// The paper's §4.7 example: keys "foo", 1, 1, "foo", true group into 3
	// groups without error, via the (tag, str, num) encoding.
	ctx := testCtx()
	keys := []item.Item{item.Str("foo"), item.Int(1), item.Int(1), item.Str("foo"), item.Bool(true)}
	var rows []row
	for _, k := range keys {
		sk, err := item.EncodeSortKey(seq(k), false)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{int64(sk.Tag), sk.Str, sk.Num, seq(k)})
	}
	sch := schema{cols: []column{
		{name: "k1", typ: colInt}, {name: "k2", typ: colString}, {name: "k3", typ: colDouble},
		{name: "i", typ: colSeq},
	}}
	df := &dataFrame{schema: sch, rows: spark.Parallelize(ctx, rows, 2)}
	grouped, err := df.groupBy([]string{"k1", "k2", "k3"}, []agg{{col: "i", as: "count"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := spark.Collect(grouped.rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d groups, want 3 (foo, 1, true)", len(got))
	}
	counts := map[int64]int{}
	for _, r := range got {
		counts[r[3].(int64)]++
	}
	if counts[2] != 2 || counts[1] != 1 {
		t.Errorf("group sizes wrong: %v", counts)
	}
}

func TestGroupByErrors(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 4)
	if _, err := df.groupBy([]string{"missing"}, nil); err == nil {
		t.Error("unknown key column should error")
	}
	if _, err := df.groupBy([]string{"x"}, nil); err == nil {
		t.Error("grouping on a sequence column should error")
	}
}

func TestOrderByNativeColumns(t *testing.T) {
	ctx := testCtx()
	var rows []row
	for i := 0; i < 100; i++ {
		rows = append(rows, row{int64((i * 37) % 100), fmt.Sprintf("s%02d", i%7)})
	}
	sch := schema{cols: []column{{name: "n", typ: colInt}, {name: "s", typ: colString}}}
	df := &dataFrame{schema: sch, rows: spark.Parallelize(ctx, rows, 5)}
	sorted, err := df.orderBy([]sortSpec{{col: "s"}, {col: "n", descending: true}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := spark.Collect(sorted.rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		sa, sb := a[1].(string), b[1].(string)
		if sa > sb {
			t.Fatalf("row %d out of order on s", i)
		}
		if sa == sb && a[0].(int64) < b[0].(int64) {
			t.Fatalf("row %d out of order on n desc", i)
		}
	}
	if _, err := df.orderBy([]sortSpec{{col: "zzz"}}); err == nil {
		t.Error("unknown sort column should error")
	}
}
