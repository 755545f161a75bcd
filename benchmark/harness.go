package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rumble"
)

// counters are the engine's cluster counters the benchmark attributes to
// layers, read through Engine.Metrics() before and after a piece of work.
type counters struct {
	tasks, shuffle, records, taskNS      int64
	morsels                              int64
	segRead, segSkipped, hits, misses    int64
	rejected, planHits, planMisses       int64 // server side, serve_mixed only
	busyNS, waitNS                       int64 // profiled runs of the traced pass
	resultBytes, writeBytes, ndjsonBytes int64
}

func engineCounters(e *rumble.Engine) counters {
	m := e.Metrics()
	return counters{
		tasks: m.TasksRun, shuffle: m.ShuffleRecords, records: m.RecordsRead, taskNS: int64(m.TaskTime),
		morsels: m.VectorMorsels,
		segRead: m.SegmentsRead, segSkipped: m.SegmentsSkipped, hits: m.SegmentCacheHits, misses: m.SegmentCacheMiss,
	}
}

// addDelta adds (after - before) of the engine counters to c.
func (c *counters) addDelta(before, after counters) {
	c.tasks += after.tasks - before.tasks
	c.shuffle += after.shuffle - before.shuffle
	c.records += after.records - before.records
	c.taskNS += after.taskNS - before.taskNS
	c.morsels += after.morsels - before.morsels
	c.segRead += after.segRead - before.segRead
	c.segSkipped += after.segSkipped - before.segSkipped
	c.hits += after.hits - before.hits
	c.misses += after.misses - before.misses
}

// acc is everything one pass accumulates besides op times. Ops of
// concurrent clients share it under mu.
type acc struct {
	mu  sync.Mutex
	sum counters
	// qMS holds per-query wall times in ms, keyed by query name.
	qMS map[string][]float64
	// executeMS / opMS split op time between evaluation and the rest.
	executeMS, opMS float64
	// opsNoMiss counts ops that finished without a single pool miss.
	opsNoMiss int
	// qSkipped is the segments each query's zone maps skipped, by name.
	qSkipped map[string]int64
	writeMS  float64
	// server phases, from the response envelope (ms).
	queueMS, compileMissMS, srvExecuteMS, httpOverheadMS []float64
	ndjsonMS                                             float64
}

func newAcc() *acc { return &acc{qMS: map[string][]float64{}, qSkipped: map[string]int64{}} }

// bench is a workload after set-up: data on disk, oracle computed, caches
// warmed, ready to run ops.
type bench struct {
	clients int
	// op runs one operation and reports its wall time and whether every
	// result it returned matched the oracle. t is nil in the plain pass.
	op func(t *tracer, client, opID int, a *acc) (time.Duration, bool)
	// passHook, when set, runs at the start of a pass and returns the
	// function that closes it (server-side counter deltas).
	passHook func(a *acc) func()
	// claims checks, from one pass's counters, that the workload stressed
	// and bypassed the layers it says it does.
	claims func(a *acc, ops int) error
	close  func()

	// inputs of the layer replays
	redditPath    string
	confusionPath string // bare-scan baseline; raw_json_cold only
	queries       []query
	engineConfig  rumble.Config
	// info is printed with the results: sizes, working set, pool bytes.
	info map[string]any
}

// pass is one timed run of a bench.
type pass struct {
	durMS   []float64 // op wall times in completion order
	failed  int
	allocMB float64 // TotalAlloc delta over the pass
	acc     *acc
}

// runPass drives b's clients in a closed loop — each issues its next op
// when the previous one returns — until seconds have passed and at least
// minOps ops completed. All goroutines it starts have exited on return.
func runPass(b *bench, t *tracer, seconds float64, minOps int) pass {
	p := pass{acc: newAcc()}
	if b.passHook != nil {
		defer b.passHook(p.acc)()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var nextOp, done atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) || done.Load() < int64(minOps) {
				dur, ok := b.op(t, c, int(nextOp.Add(1))-1, p.acc)
				done.Add(1)
				mu.Lock()
				p.durMS = append(p.durMS, float64(dur)/1e6)
				if !ok {
					p.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return p
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the metric's relative spread over the run's own blocks,
	// (max-min)/median; -compare calls a pair unresolved when it exceeds
	// the metric's bound.
	Spread float64 `json:"spread,omitempty"`
}

// endToEnd computes the user-visible metrics of a plain pass.
func endToEnd(p pass, clients int, setupS float64) map[string]metricValue {
	p50, s50 := overBlocks(p.durMS, median)
	// Timed wall is the ops' own time: the harness's result checks that
	// run between ops (reading written parts back) are not the program's.
	rate, sRate := overBlocks(p.durMS, func(b []float64) float64 {
		return float64(clients*len(b)) / (sum(b) / 1000)
	})
	return map[string]metricValue{
		"setup_s":         {Value: setupS, Unit: "s"},
		"op_ms_p50":       {Value: p50, Unit: "ms", Spread: s50},
		"ops_per_s":       {Value: rate, Unit: "1/s", Spread: sRate},
		"alloc_mb_per_op": {Value: p.allocMB / float64(len(p.durMS)), Unit: "MB"},
	}
}

// workloadResult is one workload's section of the results document.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Info      map[string]any         `json:"info"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	spans     []span
	selfMS    map[string]float64 // self time per span name of the traced run
}

// runPlan says how much of a workload one invocation runs.
type runPlan struct {
	seed       int64
	sizes      sizes
	workers    int
	dataDir    string
	minSetups  int     // setup_s is the median of this many set-ups,
	maxSetups  int     // or of more while they took under 2 s in all
	plainSecs  float64 // end-to-end pass
	tracedSecs float64 // 0 = no traced pass, no per-layer metrics
	minOps     int
}

// runWorkload sets w up, runs the plain pass and, when asked, the traced
// pass and the layer replays. It removes its data directory on return.
func runWorkload(w workload, rp runPlan) (*workloadResult, error) {
	var b *bench
	var setupS []float64
	dir := filepath.Join(rp.dataDir, fmt.Sprintf("%s-%d", w.name, rp.seed))
	defer os.RemoveAll(dir)
	// A quick set-up is repeated more often: the shorter it is, the more a
	// single stall moves it.
	for i := 0; i < rp.minSetups || (i < rp.maxSetups && sum(setupS) < 2); i++ {
		if b != nil {
			b.close()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if b, err = w.setup(rp, dir); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.close()

	res := &workloadResult{Info: b.info}
	plain := runPass(b, nil, rp.plainSecs, rp.minOps)
	res.Attempted, res.Failed = len(plain.durMS), plain.failed
	res.EndToEnd = endToEnd(plain, b.clients, median(setupS))
	res.Info["ops"] = len(plain.durMS)
	res.Info["setup_runs"] = len(setupS)
	if err := b.claims(plain.acc, len(plain.durMS)); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	if rp.tracedSecs > 0 {
		t := newTracer(w.name)
		traced := runPass(b, t, rp.tracedSecs, rp.minOps)
		res.Attempted += len(traced.durMS)
		res.Failed += traced.failed
		if err := b.claims(traced.acc, len(traced.durMS)); err != nil {
			res.Errors = append(res.Errors, "traced pass: "+err.Error())
		}
		layer := layerMetrics(traced, b.clients)
		if err := replay(t, b, rp.workers, layer); err != nil {
			return nil, fmt.Errorf("%s: replay: %w", w.name, err)
		}
		layer["trace.overhead_ratio"] = median(traced.durMS) / median(plain.durMS)
		layer["op_ms_p95"], _ = overBlocks(plain.durMS, func(b []float64) float64 { return percentile(b, 0.95) })
		res.PerLayer = map[string]metricValue{}
		for _, m := range perLayer {
			res.PerLayer[m.name] = metricValue{Value: layer[m.name], Unit: m.unit}
		}
		res.spans, res.selfMS = t.spans, selfTimes(t.spans)
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}

// layerMetrics turns a traced pass's accumulations into per-layer metrics.
// The replays add the ones measured by calling a layer directly.
func layerMetrics(p pass, clients int) map[string]float64 {
	a, ops := p.acc, float64(len(p.durMS))
	out := map[string]float64{}
	for name, ms := range a.qMS {
		out["runtime.q_"+name+"_ms_p50"] = median(ms)
	}
	out["runtime.execute_share"] = ratio(a.executeMS, a.opMS)
	out["runtime.worker_busy_share"] = ratio(float64(a.sum.busyNS), float64(a.sum.busyNS+a.sum.waitNS))
	out["runtime.vector_morsels"] = float64(a.sum.morsels) / ops
	out["spark.tasks_run"] = float64(a.sum.tasks) / ops
	out["spark.shuffle_records"] = float64(a.sum.shuffle) / ops
	out["spark.records_read"] = float64(a.sum.records) / ops
	out["spark.task_time_ms"] = float64(a.sum.taskNS) / 1e6 / ops
	out["segment.segments_read"] = float64(a.sum.segRead) / ops
	out["segment.segments_skipped"] = float64(a.sum.segSkipped) / ops
	out["segment.pool_hits"] = float64(a.sum.hits) / ops
	out["segment.pool_misses"] = float64(a.sum.misses) / ops
	out["segment.skip_ratio"] = ratio(float64(a.sum.segSkipped), float64(a.sum.segRead+a.sum.segSkipped))
	out["segment.pool_hit_ratio"] = ratio(float64(a.sum.hits), float64(a.sum.hits+a.sum.misses))
	out["item.result_bytes_per_op"] = float64(a.sum.resultBytes) / ops
	out["dfs.write_mb_s"] = ratio(float64(a.sum.writeBytes)/1e6, a.writeMS/1000)
	out["server.queue_ms_p50"] = median(a.queueMS)
	out["server.compile_ms_p50"] = median(a.compileMissMS)
	out["server.execute_ms_p50"] = median(a.srvExecuteMS)
	out["server.http_overhead_ms_p50"] = median(a.httpOverheadMS)
	out["server.plan_cache_hit_ratio"] = ratio(float64(a.sum.planHits), float64(a.sum.planHits+a.sum.planMisses))
	out["server.rejected"] = float64(a.sum.rejected)
	out["server.ndjson_mb_s"] = ratio(float64(a.sum.ndjsonBytes)/1e6, a.ndjsonMS/1000)
	return out
}

// ratio is a/b, and 0 where the workload never exercises the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
