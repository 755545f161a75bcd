package spark

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func testCtx() *Context {
	return NewContext(Config{Parallelism: 4, Executors: 4})
}

func intsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := testCtx()
	data := intsUpTo(1000)
	got, err := Collect(Parallelize(ctx, data, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("collected %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; partition order not preserved", i, v)
		}
	}
}

func TestParallelizeEmptyAndSmall(t *testing.T) {
	ctx := testCtx()
	if got, err := Collect(Parallelize[int](ctx, nil, 5)); err != nil || len(got) != 0 {
		t.Errorf("empty parallelize = %v, %v", got, err)
	}
	r := Parallelize(ctx, []int{1, 2}, 10)
	if r.NumPartitions() > 2 {
		t.Errorf("2 elements got %d partitions", r.NumPartitions())
	}
	got, err := Collect(r)
	if err != nil || len(got) != 2 {
		t.Errorf("small parallelize = %v, %v", got, err)
	}
}

func TestSliceRangeCoversAll(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		np := int(parts)%16 + 1
		nn := int(n) % 5000
		covered := 0
		prevHi := 0
		for p := 0; p < np; p++ {
			lo, hi := sliceRange(nn, np, p)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == nn && prevHi == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapFilterFlatMapPipeline(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, intsUpTo(100), 4)
	doubled := Map(r, func(x int) int { return x * 2 })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	split := FlatMap(evens, func(x int) []int { return []int{x, x + 1} })
	n, err := Count(split)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("count = %d, want 100", n)
	}
}

func TestMapEErrorPropagates(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, intsUpTo(10), 2)
	bad := MapE(r, func(x int) (int, error) {
		if x == 7 {
			return 0, fmt.Errorf("boom at %d", x)
		}
		return x, nil
	})
	if _, err := Collect(bad); err == nil {
		t.Fatal("expected error from failing map")
	}
}

// TestMapPartitionsPerTaskState pins MapPartitions' contract: f runs once
// per partition computation, so state made before each is per task, and the
// partition count, element order and error propagation are those of MapE.
func TestMapPartitionsPerTaskState(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, intsUpTo(100), 4)
	var calls atomic.Int64
	tagged := MapPartitions(r, func(each func(func(int) error) error, yield func([2]int) error) error {
		task := int(calls.Add(1))
		seen := 0 // per-task state: never shared between partitions
		return each(func(x int) error {
			seen++
			return yield([2]int{x, task*1000 + seen})
		})
	})
	if tagged.NumPartitions() != 4 {
		t.Fatalf("partitions = %d, want 4", tagged.NumPartitions())
	}
	got, err := Collect(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("f ran %d times, want once per partition (4)", calls.Load())
	}
	perTask := map[int]int{}
	for i, g := range got {
		if g[0] != i {
			t.Fatalf("element %d is %d: order not preserved", i, g[0])
		}
		task, n := g[1]/1000, g[1]%1000
		if perTask[task]+1 != n {
			t.Fatalf("task %d: counter %d after %d: state leaked between tasks", task, n, perTask[task])
		}
		perTask[task] = n
	}
	bad := MapPartitions(r, func(each func(func(int) error) error, yield func(int) error) error {
		return each(func(x int) error {
			if x == 57 {
				return fmt.Errorf("boom at %d", x)
			}
			return yield(x)
		})
	})
	if _, err := Collect(bad); err == nil || err.Error() != "boom at 57" {
		t.Fatalf("error = %v, want boom at 57", err)
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, intsUpTo(10), 2)
	bad := Map(r, func(x int) int {
		if x == 3 {
			panic("kaboom")
		}
		return x
	})
	if _, err := Collect(bad); err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

// TestStageReportsLowestFailingPartition pins deterministic stage errors:
// when partitions 1 and 3 both fail, the stage reports partition 1's error
// whatever the schedule. Partition 1 fails only after partition 3 has (or,
// with one executor, after a timeout), so an error picked by time would be
// partition 3's.
func TestStageReportsLowestFailingPartition(t *testing.T) {
	for _, executors := range []int{1, 2, 8} {
		ctx := NewContext(Config{Executors: executors})
		for run := 0; run < 50; run++ {
			p3failed := make(chan struct{})
			r := NewRDD(ctx, 6, "failing", func(p int, yield func(int) error) error {
				switch p {
				case 1:
					select {
					case <-p3failed:
					case <-time.After(20 * time.Millisecond):
					}
					return errors.New("partition 1 failed")
				case 3:
					close(p3failed)
					return errors.New("partition 3 failed")
				}
				return yield(p)
			})
			if _, err := Count(r); err == nil || err.Error() != "partition 1 failed" {
				t.Fatalf("executors=%d run %d: err = %v, want partition 1's", executors, run, err)
			}
		}
	}
}

func TestTakeStopsEarly(t *testing.T) {
	ctx := testCtx()
	var visited atomic.Int64
	r := NewRDD(ctx, 4, "counting", func(p int, yield func(int) error) error {
		for i := 0; i < 1000; i++ {
			visited.Add(1)
			if err := yield(p*1000 + i); err != nil {
				return err
			}
		}
		return nil
	})
	got, err := Take(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("take(5) returned %d", len(got))
	}
	if v := visited.Load(); v > 10 {
		t.Errorf("take(5) visited %d elements; early stop not working", v)
	}
}

func TestReduce(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, intsUpTo(101), 5)
	sum, ok, err := Reduce(r, func(a, b int) int { return a + b })
	if err != nil || !ok {
		t.Fatalf("reduce: %v %v", ok, err)
	}
	if sum != 5050 {
		t.Errorf("sum = %d", sum)
	}
	_, ok, err = Reduce(Parallelize[int](ctx, nil, 1), func(a, b int) int { return a + b })
	if err != nil || ok {
		t.Error("reduce of empty should report !ok")
	}
}

func TestAggregate(t *testing.T) {
	ctx := testCtx()
	// One accumulator per partition, combined in partition order: the
	// strings concatenate to the input order, and zero() runs once per
	// partition plus once on the driver.
	var zeros atomic.Int32
	got, err := Aggregate(Parallelize(ctx, intsUpTo(10), 3),
		func() []int { zeros.Add(1); return nil },
		func(acc []int, v int) []int { return append(acc, v) },
		func(a, b []int) []int { return append(a, b...) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, intsUpTo(10)) || zeros.Load() != 4 {
		t.Errorf("aggregate = %v with %d accumulators", got, zeros.Load())
	}
	boom := errors.New("boom")
	failing := MapE(Parallelize(ctx, intsUpTo(10), 3), func(v int) (int, error) {
		if v == 7 {
			return 0, boom
		}
		return v, nil
	})
	if _, err := Aggregate(failing, func() int { return 0 }, func(a, v int) int { return a + v },
		func(a, b int) int { return a + b }); !errors.Is(err, boom) {
		t.Errorf("aggregate over a failing task: err = %v", err)
	}
}

func TestUnionCoalesce(t *testing.T) {
	ctx := testCtx()
	a := Parallelize(ctx, []int{1, 2}, 2)
	b := Parallelize(ctx, []int{3, 4, 5}, 3)
	u := Union(a, b)
	if u.NumPartitions() != 5 {
		t.Errorf("union partitions = %d", u.NumPartitions())
	}
	got, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union order %v", got)
		}
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := testCtx()
	var computations atomic.Int64
	r := NewRDD(ctx, 3, "expensive", func(p int, yield func(int) error) error {
		computations.Add(1)
		return yield(p)
	})
	c := Cache(r)
	for i := 0; i < 3; i++ {
		if _, err := Collect(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := computations.Load(); n != 3 {
		t.Errorf("parent partitions computed %d times, want 3 (once each)", n)
	}
}

func TestMaxResultItems(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 2, Executors: 2, MaxResultItems: 10})
	r := Parallelize(ctx, intsUpTo(100), 2)
	if _, err := Collect(r); err != ErrResultTooLarge {
		t.Errorf("Collect err = %v, want ErrResultTooLarge", err)
	}
	small := Parallelize(ctx, intsUpTo(5), 2)
	if _, err := Collect(small); err != nil {
		t.Errorf("small collect should pass: %v", err)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, intsUpTo(100), 4)
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	if m.TasksRun < 4 || m.StagesRun < 1 {
		t.Errorf("metrics = %+v", m)
	}
	ctx.ResetMetrics()
	if ctx.Metrics().TasksRun != 0 {
		t.Error("reset did not clear metrics")
	}
}

func TestSingleExecutorStillCorrect(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 8, Executors: 1})
	r := Parallelize(ctx, intsUpTo(500), 8)
	n, err := Count(Filter(r, func(x int) bool { return x%3 == 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if n != 167 {
		t.Errorf("count = %d, want 167", n)
	}
}

// Property: algebraic law count(filter p) + count(filter !p) == count.
func TestFilterPartition(t *testing.T) {
	ctx := testCtx()
	f := func(data []int32) bool {
		ints := make([]int, len(data))
		for i, v := range data {
			ints[i] = int(v)
		}
		r := Parallelize(ctx, ints, 3)
		even := Filter(r, func(x int) bool { return x%2 == 0 })
		odd := Filter(r, func(x int) bool { return x%2 != 0 })
		ne, err1 := Count(even)
		no, err2 := Count(odd)
		nall, err3 := Count(r)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return ne+no == nall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: map fusion — Map(Map(r,f),g) == Map(r, g∘f).
func TestMapFusionLaw(t *testing.T) {
	ctx := testCtx()
	f := func(data []int16) bool {
		ints := make([]int, len(data))
		for i, v := range data {
			ints[i] = int(v)
		}
		r := Parallelize(ctx, ints, 4)
		double := func(x int) int { return x * 2 }
		inc := func(x int) int { return x + 1 }
		a, err1 := Collect(Map(Map(r, double), inc))
		b, err2 := Collect(Map(r, func(x int) int { return inc(double(x)) }))
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sortedCopy(xs []int) []int {
	out := append([]int{}, xs...)
	sort.Ints(out)
	return out
}
