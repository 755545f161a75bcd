package main

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rumble"
	"rumble/internal/dfs"
	"rumble/internal/jparse"
	"rumble/internal/segment"
	"rumble/internal/vector"
)

// replayReps is how often each direct layer call is repeated; the metric
// is the median repeat.
const replayReps = 5

// replayFields is the projection the segment and vector replays decode:
// the column set of the grouped aggregate.
var replayFields = []string{"score", "subreddit"}

// timed runs f replayReps times inside one span and returns the median
// wall time in seconds.
func timed(t *tracer, name string, parent int, f func() error) (float64, error) {
	s := t.begin(name, parent, -1)
	defer t.end(s)
	var secs []float64
	for i := 0; i < replayReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// replay measures each layer from outside, by timing the benchmark's own
// calls into the layer's exported functions over the workload's generated
// Reddit file, and adds the results to out. The spans are children of one
// "replay" span.
func replay(t *tracer, b *bench, workers int, out map[string]float64) error {
	root := t.begin("replay", -1, -1)
	defer t.end(root)
	path := b.redditPath

	// frontend: Engine.Compile of every distinct text of the workload.
	eng := rumble.New(b.engineConfig)
	var compileUS []float64
	s := t.begin("frontend.compile", root, -1)
	for _, q := range b.queries {
		for i := 0; i < 4*replayReps; i++ {
			start := time.Now()
			if _, err := eng.Compile(q.text); err != nil {
				return err
			}
			compileUS = append(compileUS, float64(time.Since(start))/1e3)
		}
	}
	t.end(s)
	out["frontend.compile_us_p50"] = median(compileUS)

	// dfs: list and read every line, doing nothing with it.
	var sourceBytes int64
	secs, err := timed(t, "dfs.read", root, func() error {
		sourceBytes = 0
		return scanLines(path, func(line []byte) error {
			sourceBytes += int64(len(line)) + 1
			return nil
		})
	})
	if err != nil {
		return err
	}
	out["dfs.read_mb_s"] = float64(sourceBytes) / 1e6 / secs

	// jparse: parse every line; allocations counted over all repeats.
	var lines [][]byte
	if err := scanLines(path, func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	}); err != nil {
		return err
	}
	items := make([]rumble.Item, len(lines))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	secs, err = timed(t, "jparse.parse", root, func() error {
		for i, line := range lines {
			var err error
			if items[i], err = jparse.Parse(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out["jparse.parse_mb_s"] = float64(sourceBytes) / 1e6 / secs
	out["jparse.allocs_per_object"] = float64(m1.Mallocs-m0.Mallocs) / float64(replayReps*len(lines))

	// item: serialize the parsed whole rows back.
	var buf []byte
	var outBytes int64
	secs, _ = timed(t, "item.serialize", root, func() error {
		outBytes = 0
		for _, it := range items {
			buf = it.AppendJSON(buf[:0])
			outBytes += int64(len(buf))
		}
		return nil
	})
	out["item.serialize_mb_s"] = float64(outBytes) / 1e6 / secs

	// runtime: what the engine adds over a bare parallel read + parse.
	if b.confusionPath != "" {
		secs, err := timed(t, "bare_scan", root, func() error { return bareScan(b.confusionPath, workers) })
		if err != nil {
			return err
		}
		out["runtime.over_bare_scan_ratio"] = out["runtime.q_filter_ms_p50"] / (secs * 1000)
	}

	// segment, write side: ingest and what it leaves on disk.
	secs, err = timed(t, "segment.ingest", root, func() error { return segment.Ingest(path) })
	if err != nil {
		return err
	}
	out["segment.ingest_mb_s"] = float64(sourceBytes) / 1e6 / secs
	stored, err := dirBytes(segment.Dir(path))
	if err != nil {
		return err
	}
	out["segment.stored_bytes_per_source_byte"] = float64(stored) / float64(sourceBytes)

	// segment, read side: hash, open, cold decode, pool hit.
	secs, err = timed(t, "segment.hash", root, func() error {
		_, _, err := segment.SourceHash(path)
		return err
	})
	if err != nil {
		return err
	}
	out["segment.hash_mb_s"] = float64(sourceBytes) / 1e6 / secs
	var ds *segment.Dataset
	secs, err = timed(t, "segment.open", root, func() error {
		var err error
		ds, err = segment.OpenDataset(path)
		return err
	})
	if err != nil {
		return err
	}
	out["segment.open_ms"] = secs * 1000

	sets := make([]*segment.ColumnSet, ds.NumSegments())
	rows, memBytes := 0, int64(0)
	fetchAll := func(d *segment.Dataset) func() error {
		return func() error {
			for i := range sets {
				var err error
				if sets[i], _, err = d.FetchBatch(i, replayFields); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// A dataset opened without a store has no pool: every fetch decodes.
	secs, err = timed(t, "segment.fetch_cold", root, fetchAll(ds))
	if err != nil {
		return err
	}
	for i, cs := range sets {
		rows += ds.Meta(i).Rows
		memBytes += cs.MemBytes()
	}
	out["segment.fetch_cold_ms_per_segment"] = secs * 1000 / float64(len(sets))
	out["segment.decoded_bytes_per_row"] = float64(memBytes) / float64(rows)

	pooled, err := segment.NewStore(segment.DefaultCacheBytes).Open(path)
	if err != nil {
		return err
	}
	if err := fetchAll(pooled)(); err != nil { // first pass fills the pool
		return err
	}
	secs, err = timed(t, "segment.fetch_hot", root, fetchAll(pooled))
	if err != nil {
		return err
	}
	out["segment.fetch_hot_us_per_segment"] = secs * 1e6 / float64(len(sets))

	// vector: the comparison and grouping kernels over the decoded lanes.
	limit := vector.ConstCol(rumble.Int(1000))
	secs, err = timed(t, "vector.compare", root, func() error {
		for _, cs := range sets {
			if _, err := vector.Compare(cs.Col("score"), limit, cs.NumRows, vector.CmpGt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["vector.compare_ns_per_row"] = secs * 1e9 / float64(rows)
	secs, err = timed(t, "vector.group_update", root, func() error {
		g := vector.NewGroups(1, []vector.AggKind{vector.AggCount, vector.AggSum})
		for _, cs := range sets {
			key, arg := []*vector.Col{cs.Col("subreddit")}, []*vector.Col{cs.Col("score"), cs.Col("score")}
			if err := g.Update(key, arg, cs.NumRows); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["vector.group_update_ns_per_row"] = secs * 1e9 / float64(rows)
	return nil
}

// scanLines reads every line of a JSON-Lines source through dfs, split by
// split, the way a scan does.
func scanLines(path string, yield func(line []byte) error) error {
	splits, err := dfs.ListSplits(path, scanSplit)
	if err != nil {
		return err
	}
	for _, sp := range splits {
		if err := dfs.ReadLines(sp, nil, yield); err != nil {
			return err
		}
	}
	return nil
}

// bareScan reads and parses path with the given number of workers taking
// splits in turn: the work a filter query cannot avoid. It waits for its
// workers before returning.
func bareScan(path string, workers int) error {
	splits, err := dfs.ListSplits(path, scanSplit)
	if err != nil {
		return err
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(splits) && errs[w] == nil; i += workers {
				errs[w] = dfs.ReadLines(splits[i], nil, func(line []byte) error {
					_, err := jparse.Parse(line)
					return err
				})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
