// Package spark is a miniature Apache-Spark-like parallel dataflow engine:
// lazy RDDs computed partition-by-partition on a bounded executor pool,
// narrow transformations pipelined without materialization, wide
// transformations (group, sort, join, zip-with-index) separated by
// shuffle barriers.
//
// It is the substrate Rumble's runtime iterators compile to, standing in
// for Apache Spark 2.4 in the paper. The engine preserves Spark's cost
// structure — per-partition pipelines and shuffle barriers — which is what
// the paper's experiments exercise. It has no DataFrame type: Rumble's
// DataFrame mode is an RDD of tuples, and the Spark SQL baseline carries
// its own (internal/baselines/sparksql).
package spark

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Context. The zero value is usable: missing fields default
// to 4 partitions and 4 executor slots.
type Config struct {
	// Parallelism is the default number of partitions for new RDDs.
	Parallelism int
	// Executors bounds how many partition tasks run concurrently,
	// emulating the total executor cores of a cluster.
	Executors int
	// MaxResultItems caps Collect sizes; 0 means unlimited. Mirrors
	// Rumble's configurable materialization cap.
	MaxResultItems int
	// IOLatency, if positive, simulates storage latency: readers sleep
	// this long per simulated block read (see dfs integration). It lets
	// scalability experiments show I/O overlap beyond the host's core
	// count, as on the paper's EMR clusters.
	IOLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Executors <= 0 {
		c.Executors = 4
	}
	return c
}

// Context owns the executor pool and metrics for one logical "cluster".
// Contexts are safe for concurrent use.
type Context struct {
	conf    Config
	metrics Metrics
}

// NewContext returns a Context with the given configuration.
func NewContext(conf Config) *Context {
	return &Context{conf: conf.withDefaults()}
}

// Conf returns the context configuration.
func (c *Context) Conf() Config { return c.conf }

// DefaultParallelism returns the default partition count.
func (c *Context) DefaultParallelism() int { return c.conf.Parallelism }

// Metrics is a snapshot of engine counters. Aggregated task time is the
// "aggregated runtime over the cluster" series of the paper's Figure 14.
type Metrics struct {
	TasksRun         atomic.Int64
	TaskNanos        atomic.Int64
	RecordsRead      atomic.Int64
	ShuffleRecords   atomic.Int64
	BroadcastRecords atomic.Int64
	StagesRun        atomic.Int64
	VectorRuns       atomic.Int64
	VectorMorsels    atomic.Int64
	VectorWorkers    atomic.Int64
	VectorSortRuns   atomic.Int64
	VectorTopKRuns   atomic.Int64
	VectorJoinRows   atomic.Int64
	SegmentsRead     atomic.Int64
	SegmentsSkipped  atomic.Int64
	SegmentCacheHits atomic.Int64
	SegmentCacheMiss atomic.Int64
	SegmentReingests atomic.Int64
	SegmentIngests   atomic.Int64
	SegmentIngestNS  atomic.Int64
	SegmentIngestB   atomic.Int64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	TasksRun       int64
	TaskTime       time.Duration
	RecordsRead    int64
	ShuffleRecords int64
	// BroadcastRecords counts build-side records shipped to executors by
	// broadcast hash joins.
	BroadcastRecords int64
	StagesRun        int64
	// VectorRuns counts vector-backend pipeline evaluations, VectorMorsels
	// the scan morsels they processed, and VectorWorkers the worker tasks
	// launched to process them (1 per run when the pool is a single slot).
	VectorRuns    int64
	VectorMorsels int64
	VectorWorkers int64
	// VectorSortRuns counts vector pipeline evaluations that ran a full
	// columnar sort, VectorTopKRuns those that ran a fused bounded top-k,
	// and VectorJoinRows the rows emitted by vector hash-join probes.
	VectorSortRuns int64 `json:"vector_sort_runs"`
	VectorTopKRuns int64 `json:"vector_topk_runs"`
	VectorJoinRows int64 `json:"vector_join_rows"`
	// SegmentsRead counts columnar segments scanned, SegmentsSkipped those
	// a zone-map prune rejected without touching a row, and the cache pair
	// counts buffer-pool hits vs cold decodes.
	SegmentsRead     int64 `json:"segments_read"`
	SegmentsSkipped  int64 `json:"segments_skipped"`
	SegmentCacheHits int64 `json:"segment_cache_hits"`
	SegmentCacheMiss int64 `json:"segment_cache_miss"`
	// SegmentReingests counts background dataset rebuilds triggered by a
	// stale source hash at open time.
	SegmentReingests int64 `json:"segment_reingests"`
	// SegmentIngests counts the segment datasets this engine built — first
	// touches and background rebuilds alike — SegmentIngestSeconds the wall
	// time they took and SegmentIngestBytes the source bytes they read.
	SegmentIngests       int64   `json:"segment_ingests_total"`
	SegmentIngestSeconds float64 `json:"segment_ingest_seconds"`
	SegmentIngestBytes   int64   `json:"segment_ingest_bytes"`
}

// Metrics returns a snapshot of the counters.
func (c *Context) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		TasksRun:         c.metrics.TasksRun.Load(),
		TaskTime:         time.Duration(c.metrics.TaskNanos.Load()),
		RecordsRead:      c.metrics.RecordsRead.Load(),
		ShuffleRecords:   c.metrics.ShuffleRecords.Load(),
		BroadcastRecords: c.metrics.BroadcastRecords.Load(),
		StagesRun:        c.metrics.StagesRun.Load(),
		VectorRuns:       c.metrics.VectorRuns.Load(),
		VectorMorsels:    c.metrics.VectorMorsels.Load(),
		VectorWorkers:    c.metrics.VectorWorkers.Load(),
		VectorSortRuns:   c.metrics.VectorSortRuns.Load(),
		VectorTopKRuns:   c.metrics.VectorTopKRuns.Load(),
		VectorJoinRows:   c.metrics.VectorJoinRows.Load(),
		SegmentsRead:     c.metrics.SegmentsRead.Load(),
		SegmentsSkipped:  c.metrics.SegmentsSkipped.Load(),
		SegmentCacheHits: c.metrics.SegmentCacheHits.Load(),
		SegmentCacheMiss: c.metrics.SegmentCacheMiss.Load(),
		SegmentReingests: c.metrics.SegmentReingests.Load(),

		SegmentIngests:       c.metrics.SegmentIngests.Load(),
		SegmentIngestSeconds: time.Duration(c.metrics.SegmentIngestNS.Load()).Seconds(),
		SegmentIngestBytes:   c.metrics.SegmentIngestB.Load(),
	}
}

// ResetMetrics zeroes all counters.
func (c *Context) ResetMetrics() {
	c.metrics.TasksRun.Store(0)
	c.metrics.TaskNanos.Store(0)
	c.metrics.RecordsRead.Store(0)
	c.metrics.ShuffleRecords.Store(0)
	c.metrics.BroadcastRecords.Store(0)
	c.metrics.StagesRun.Store(0)
	c.metrics.VectorRuns.Store(0)
	c.metrics.VectorMorsels.Store(0)
	c.metrics.VectorWorkers.Store(0)
	c.metrics.VectorSortRuns.Store(0)
	c.metrics.VectorTopKRuns.Store(0)
	c.metrics.VectorJoinRows.Store(0)
	c.metrics.SegmentsRead.Store(0)
	c.metrics.SegmentsSkipped.Store(0)
	c.metrics.SegmentCacheHits.Store(0)
	c.metrics.SegmentCacheMiss.Store(0)
	c.metrics.SegmentReingests.Store(0)
	c.metrics.SegmentIngests.Store(0)
	c.metrics.SegmentIngestNS.Store(0)
	c.metrics.SegmentIngestB.Store(0)
}

// AddVectorRun counts one vector-backend pipeline evaluation.
func (c *Context) AddVectorRun() { c.metrics.VectorRuns.Add(1) }

// AddVectorMorsels counts scan morsels processed by the vector backend.
func (c *Context) AddVectorMorsels(n int64) { c.metrics.VectorMorsels.Add(n) }

// AddVectorWorkers counts worker tasks launched by the vector backend.
func (c *Context) AddVectorWorkers(n int64) { c.metrics.VectorWorkers.Add(n) }

// AddVectorSortRun counts one vector pipeline run with a full columnar sort.
func (c *Context) AddVectorSortRun() { c.metrics.VectorSortRuns.Add(1) }

// AddVectorTopKRun counts one vector pipeline run with a fused top-k.
func (c *Context) AddVectorTopKRun() { c.metrics.VectorTopKRuns.Add(1) }

// AddVectorJoinRows counts rows emitted by vector hash-join probes.
func (c *Context) AddVectorJoinRows(n int64) { c.metrics.VectorJoinRows.Add(n) }

// AddSegmentsRead counts columnar segments scanned by the vector backend.
func (c *Context) AddSegmentsRead(n int64) { c.metrics.SegmentsRead.Add(n) }

// AddSegmentsSkipped counts segments a zone-map prune skipped wholesale.
func (c *Context) AddSegmentsSkipped(n int64) { c.metrics.SegmentsSkipped.Add(n) }

// AddSegmentCacheHits counts buffer-pool hits serving decoded segments.
func (c *Context) AddSegmentCacheHits(n int64) { c.metrics.SegmentCacheHits.Add(n) }

// AddSegmentCacheMiss counts cold segment reads that had to decode.
func (c *Context) AddSegmentCacheMiss(n int64) { c.metrics.SegmentCacheMiss.Add(n) }

// AddSegmentReingests counts background re-ingests of stale datasets.
func (c *Context) AddSegmentReingests(n int64) { c.metrics.SegmentReingests.Add(n) }

// AddSegmentIngest counts one completed segment ingest, its wall time and
// the source bytes it read.
func (c *Context) AddSegmentIngest(wall time.Duration, sourceBytes int64) {
	c.metrics.SegmentIngests.Add(1)
	c.metrics.SegmentIngestNS.Add(int64(wall))
	c.metrics.SegmentIngestB.Add(sourceBytes)
}

// AddRecordsRead is called by input sources when they produce records.
func (c *Context) AddRecordsRead(n int64) { c.metrics.RecordsRead.Add(n) }

// SimulateIO sleeps for blocks*IOLatency when latency simulation is
// enabled. Input sources call it once per block read.
func (c *Context) SimulateIO(blocks int) {
	if c.conf.IOLatency > 0 && blocks > 0 {
		time.Sleep(time.Duration(blocks) * c.conf.IOLatency)
	}
}

// runStage executes task(p) for p in [0, parts) on at most conf.Executors
// concurrent goroutines and returns the first error. Each call owns its own
// worker group, so stages nested inside a running task (a shuffle evaluating
// its parent) cannot deadlock the pool.
func (c *Context) runStage(parts int, task func(p int) error) error {
	c.metrics.StagesRun.Add(1)
	if parts == 0 {
		return nil
	}
	if parts == 1 {
		return c.runTask(0, task)
	}
	workers := c.conf.Executors
	if workers > parts {
		workers = parts
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		err  error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1) - 1)
				if p >= parts {
					return
				}
				mu.Lock()
				stop := err != nil
				mu.Unlock()
				if stop {
					return
				}
				if e := c.runTask(p, task); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

func (c *Context) runTask(p int, task func(p int) error) (err error) {
	start := time.Now()
	defer func() {
		c.metrics.TasksRun.Add(1)
		c.metrics.TaskNanos.Add(int64(time.Since(start)))
		if r := recover(); r != nil {
			err = fmt.Errorf("task %d panicked: %v", p, r)
		}
	}()
	return task(p)
}

// ErrResultTooLarge is returned by Collect when MaxResultItems is exceeded.
var ErrResultTooLarge = fmt.Errorf("spark: result exceeds MaxResultItems")
