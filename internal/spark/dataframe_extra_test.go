package spark

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestForeachPartitionSink(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	r := Parallelize(ctx, []string{"a", "b", "c", "d", "e"}, 3)
	lines := Map(r, func(s string) []byte { return []byte(s) })
	err := ForeachPartitionSink(lines, func(p int) (Sink[[]byte], error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("part-%d", p)))
		if err != nil {
			return Sink[[]byte]{}, err
		}
		return Sink[[]byte]{
			Write: func(b []byte) error {
				_, err := f.Write(append(b, '\n'))
				return err
			},
			Close: f.Close,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("%d part files", len(entries))
	}
	total := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			if b == '\n' {
				total++
			}
		}
	}
	if total != 5 {
		t.Errorf("wrote %d lines", total)
	}
}

func TestForeachPartitionSinkOpenError(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, []int{1, 2, 3}, 2)
	err := ForeachPartitionSink(r, func(p int) (Sink[int], error) {
		return Sink[int]{}, fmt.Errorf("cannot open %d", p)
	})
	if err == nil {
		t.Error("sink open failure should propagate")
	}
}

func TestSimulateIOLatency(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 2, Executors: 2, IOLatency: 5 * time.Millisecond})
	start := time.Now()
	ctx.SimulateIO(3)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("SimulateIO(3) slept only %v", elapsed)
	}
	// disabled latency must not sleep
	fast := NewContext(Config{Parallelism: 2, Executors: 2})
	start = time.Now()
	fast.SimulateIO(1000)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("disabled SimulateIO slept %v", elapsed)
	}
}

func TestIOLatencyOverlapsAcrossExecutors(t *testing.T) {
	// With per-partition I/O latency, doubling executors should roughly
	// halve the wall time of an I/O-bound stage.
	run := func(executors int) time.Duration {
		ctx := NewContext(Config{Parallelism: 8, Executors: executors, IOLatency: 4 * time.Millisecond})
		r := NewRDD(ctx, 8, "io", func(p int, yield func(int) error) error {
			ctx.SimulateIO(2) // 8 ms per partition
			return yield(p)
		})
		start := time.Now()
		if _, err := Count(r); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := run(1)
	parallel := run(8)
	if parallel*2 >= serial {
		t.Errorf("no overlap: 1 exec %v, 8 exec %v", serial, parallel)
	}
}
