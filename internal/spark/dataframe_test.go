package spark

import (
	"fmt"
	"testing"

	"rumble/internal/item"
)

func seq(items ...item.Item) []item.Item { return items }

func makeDF(t *testing.T, ctx *Context, n int) *DataFrame {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{seq(item.Int(int64(i))), seq(item.Str(fmt.Sprintf("name%d", i%3)))}
	}
	schema := Schema{Cols: []Column{{Name: "x", Type: ColSeq}, {Name: "name", Type: ColSeq}}}
	return NewDataFrame(schema, Parallelize(ctx, rows, 4))
}

func TestWithColumnExtendedProjection(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 10)
	df2 := df.WithColumn("double", ColSeq, func(r Row) (any, error) {
		x := r.Seq(0)[0].(item.Int)
		return seq(item.Int(int64(x) * 2)), nil
	})
	rows, err := df2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	if df2.Schema().IndexOf("double") != 2 {
		t.Error("new column not appended")
	}
	for _, r := range rows {
		x := int64(r.Seq(0)[0].(item.Int))
		d := int64(r.Seq(2)[0].(item.Int))
		if d != 2*x {
			t.Fatalf("row %d: double = %d", x, d)
		}
	}
}

func TestWithColumnUDFErrorPropagates(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 10)
	df2 := df.WithColumn("bad", ColSeq, func(r Row) (any, error) {
		return nil, fmt.Errorf("udf failure")
	})
	if _, err := df2.Collect(); err == nil {
		t.Fatal("expected udf error")
	}
}

func TestWhere(t *testing.T) {
	ctx := testCtx()
	df := makeDF(t, ctx, 100)
	df2 := df.Where(func(r Row) (bool, error) {
		return int64(r.Seq(0)[0].(item.Int))%2 == 0, nil
	})
	n, err := df2.Count()
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
	var rows []Row
	for i := 0; i < 90; i++ {
		rows = append(rows, Row{int64(i % 3), seq(item.Int(int64(i)))})
	}
	schema := Schema{Cols: []Column{{Name: "tag", Type: ColInt}, {Name: "p", Type: ColSeq}}}
	df := NewDataFrame(schema, Parallelize(ctx, rows, 4))
	grouped, err := df.GroupBy([]string{"tag"}, []Agg{{Col: "p", Kind: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := grouped.Collect()
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
	if grouped.Schema().Cols[1] != (Column{Name: "n", Type: ColInt}) {
		t.Errorf("count column = %+v", grouped.Schema().Cols[1])
	}
	if _, err := df.GroupBy([]string{"tag"}, []Agg{{Col: "p", Kind: AggCount + 1}}); err == nil {
		t.Error("an aggregation kind other than AggCount should error")
	}
}

func TestGroupByHeterogeneousTypedKeys(t *testing.T) {
	// The paper's §4.7 example: keys "foo", 1, 1, "foo", true group into 3
	// groups without error, via the (tag, str, num) encoding.
	ctx := testCtx()
	keys := []item.Item{item.Str("foo"), item.Int(1), item.Int(1), item.Str("foo"), item.Bool(true)}
	var rows []Row
	for _, k := range keys {
		sk, err := item.EncodeSortKey(seq(k), false)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, Row{int64(sk.Tag), sk.Str, sk.Num, seq(k)})
	}
	schema := Schema{Cols: []Column{
		{Name: "k1", Type: ColInt}, {Name: "k2", Type: ColString}, {Name: "k3", Type: ColDouble},
		{Name: "i", Type: ColSeq},
	}}
	df := NewDataFrame(schema, Parallelize(ctx, rows, 2))
	grouped, err := df.GroupBy([]string{"k1", "k2", "k3"}, []Agg{{Col: "i", Kind: AggCount, As: "count"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := grouped.Collect()
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
	if _, err := df.GroupBy([]string{"missing"}, nil); err == nil {
		t.Error("unknown key column should error")
	}
	if _, err := df.GroupBy([]string{"x"}, nil); err == nil {
		t.Error("grouping on a sequence column should error")
	}
}

func TestOrderByNativeColumns(t *testing.T) {
	ctx := testCtx()
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64((i * 37) % 100), fmt.Sprintf("s%02d", i%7)})
	}
	schema := Schema{Cols: []Column{{Name: "n", Type: ColInt}, {Name: "s", Type: ColString}}}
	df := NewDataFrame(schema, Parallelize(ctx, rows, 5))
	sorted, err := df.OrderBy([]SortSpec{{Col: "s"}, {Col: "n", Descending: true}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sorted.Collect()
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
	if _, err := df.OrderBy([]SortSpec{{Col: "zzz"}}); err == nil {
		t.Error("unknown sort column should error")
	}
}
