package server

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"rumble/internal/spark"
)

// histBuckets is the bucket count of the per-mode latency histograms:
// fifteen log-scale finite buckets plus the +Inf overflow bucket.
const histBuckets = 16

// histLimitMS returns the upper bound (in milliseconds) of finite bucket
// i: 0.25ms·2^i, i.e. 0.25ms, 0.5ms, 1ms, ... 4096ms. The last bucket
// (i = histBuckets-1) is +Inf.
func histLimitMS(i int) float64 { return 0.25 * float64(int64(1)<<i) }

// histBucketFor maps a latency to its (non-cumulative) bucket index.
func histBucketFor(d time.Duration) int {
	ms := float64(d) / float64(time.Millisecond)
	for i := 0; i < histBuckets-1; i++ {
		if ms <= histLimitMS(i) {
			return i
		}
	}
	return histBuckets - 1
}

// Metrics holds the server's live counters. Every atomic field must be
// snapshotted in Metrics(), zeroed in ResetMetrics() and carried by an
// exported MetricsSnapshot field — the metricsreg analyzer enforces all
// three, including the histogram bucket arrays.
type Metrics struct {
	queries   atomic.Int64
	errors    atomic.Int64
	rejected  atomic.Int64
	timeouts  atomic.Int64
	cancelled atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64

	modeLocal  atomic.Int64
	modeRDD    atomic.Int64
	modeDF     atomic.Int64
	modeVector atomic.Int64

	// Per-mode query latency histograms (execution time, log-scale
	// buckets) and their running sums. Bucket counts are per-bucket, not
	// cumulative; the Prometheus rendering accumulates them.
	histLocal   [histBuckets]atomic.Int64
	histRDD     [histBuckets]atomic.Int64
	histDF      [histBuckets]atomic.Int64
	histVector  [histBuckets]atomic.Int64
	sumLocalNS  atomic.Int64
	sumRDDNS    atomic.Int64
	sumDFNS     atomic.Int64
	sumVectorNS atomic.Int64
}

// observeLatency records one query evaluation's execution latency under
// its execution mode.
func (m *Metrics) observeLatency(mode string, d time.Duration) {
	i := histBucketFor(d)
	switch mode {
	case "RDD":
		m.histRDD[i].Add(1)
		m.sumRDDNS.Add(int64(d))
	case "DataFrame":
		m.histDF[i].Add(1)
		m.sumDFNS.Add(int64(d))
	case "Vector":
		m.histVector[i].Add(1)
		m.sumVectorNS.Add(int64(d))
	default:
		m.histLocal[i].Add(1)
		m.sumLocalNS.Add(int64(d))
	}
}

// HistogramSnapshot is the JSON rendering of one latency histogram.
// Counts are per-bucket (not cumulative); LeMS holds the finite upper
// bounds, so len(Counts) == len(LeMS)+1 and the last count is overflow.
type HistogramSnapshot struct {
	LeMS   []float64 `json:"le_ms"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	SumMS  float64   `json:"sum_ms"`
}

// MetricsSnapshot is a plain-value copy of the server counters, served by
// /metrics next to the engine's cluster counters.
type MetricsSnapshot struct {
	// Queries counts evaluations started (admitted past the queue).
	Queries int64 `json:"queries"`
	// Errors counts evaluations that failed with a query error.
	Errors int64 `json:"errors"`
	// Rejected counts requests turned away with 429 (queue full).
	Rejected int64 `json:"rejected"`
	// Timeouts counts requests that exceeded their deadline.
	Timeouts int64 `json:"timeouts"`
	// Cancelled counts requests whose client went away mid-flight.
	Cancelled int64 `json:"cancelled"`
	// CacheHits / CacheMisses count compiled-plan cache outcomes.
	CacheHits   int64 `json:"plan_cache_hits"`
	CacheMisses int64 `json:"plan_cache_misses"`
	// ModeLocal..ModeVector count evaluations by the execution mode the
	// compiler statically assigned to the query's root (the same value the
	// envelope's "mode" field and X-Rumble-Mode header report).
	ModeLocal     int64 `json:"queries_mode_local"`
	ModeRDD       int64 `json:"queries_mode_rdd"`
	ModeDataFrame int64 `json:"queries_mode_dataframe"`
	ModeVector    int64 `json:"queries_mode_vector"`
	// LatencyLocal..LatencyVector are the per-mode execution-latency
	// histograms over fixed log-scale buckets.
	LatencyLocal     HistogramSnapshot `json:"latency_local"`
	LatencyRDD       HistogramSnapshot `json:"latency_rdd"`
	LatencyDataFrame HistogramSnapshot `json:"latency_dataframe"`
	LatencyVector    HistogramSnapshot `json:"latency_vector"`
	// CachedPlans is the current number of cached statements; CacheBytes
	// their approximate resident footprint, the quantity the cache is
	// bounded by.
	CachedPlans int   `json:"plan_cache_size"`
	CacheBytes  int64 `json:"plan_cache_bytes"`
	// Active is the number of evaluations running right now; Queued the
	// number waiting for a slot.
	Active int64 `json:"active"`
	Queued int64 `json:"queued"`
}

// newHistSnapshot returns a histogram rendering with the bucket bounds
// filled in and the counts zeroed, ready for the snapshot loop.
func newHistSnapshot(sumNS int64) HistogramSnapshot {
	h := HistogramSnapshot{
		LeMS:   make([]float64, histBuckets-1),
		Counts: make([]int64, histBuckets),
		SumMS:  float64(sumNS) / 1e6,
	}
	for i := 0; i < histBuckets-1; i++ {
		h.LeMS[i] = histLimitMS(i)
	}
	return h
}

// total sums the per-bucket counts into Count.
func (h *HistogramSnapshot) total() {
	h.Count = 0
	for _, c := range h.Counts {
		h.Count += c
	}
}

// Metrics snapshots the server counters. The histogram bucket loads are
// spelled out here (not in a helper) so the metricsreg analyzer can see
// each bucket array flow into the snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	m := &s.m
	active := s.active.Load()
	snap := MetricsSnapshot{
		Queries:          m.queries.Load(),
		Errors:           m.errors.Load(),
		Rejected:         m.rejected.Load(),
		Timeouts:         m.timeouts.Load(),
		Cancelled:        m.cancelled.Load(),
		CacheHits:        m.hits.Load(),
		CacheMisses:      m.misses.Load(),
		ModeLocal:        m.modeLocal.Load(),
		ModeRDD:          m.modeRDD.Load(),
		ModeDataFrame:    m.modeDF.Load(),
		ModeVector:       m.modeVector.Load(),
		LatencyLocal:     newHistSnapshot(m.sumLocalNS.Load()),
		LatencyRDD:       newHistSnapshot(m.sumRDDNS.Load()),
		LatencyDataFrame: newHistSnapshot(m.sumDFNS.Load()),
		LatencyVector:    newHistSnapshot(m.sumVectorNS.Load()),
		CachedPlans:      s.cache.len(),
		CacheBytes:       s.cache.size(),
		Active:           active,
		Queued:           s.inFlight.Load() - active,
	}
	for i := 0; i < histBuckets; i++ {
		snap.LatencyLocal.Counts[i] = m.histLocal[i].Load()
		snap.LatencyRDD.Counts[i] = m.histRDD[i].Load()
		snap.LatencyDataFrame.Counts[i] = m.histDF[i].Load()
		snap.LatencyVector.Counts[i] = m.histVector[i].Load()
	}
	snap.LatencyLocal.total()
	snap.LatencyRDD.total()
	snap.LatencyDataFrame.total()
	snap.LatencyVector.total()
	return snap
}

// ResetMetrics zeroes the server counters (cache contents and in-flight
// gauges are state, not counters, and are left alone).
func (s *Server) ResetMetrics() {
	m := &s.m
	m.queries.Store(0)
	m.errors.Store(0)
	m.rejected.Store(0)
	m.timeouts.Store(0)
	m.cancelled.Store(0)
	m.hits.Store(0)
	m.misses.Store(0)
	m.modeLocal.Store(0)
	m.modeRDD.Store(0)
	m.modeDF.Store(0)
	m.modeVector.Store(0)
	for i := 0; i < histBuckets; i++ {
		m.histLocal[i].Store(0)
		m.histRDD[i].Store(0)
		m.histDF[i].Store(0)
		m.histVector[i].Store(0)
	}
	m.sumLocalNS.Store(0)
	m.sumRDDNS.Store(0)
	m.sumDFNS.Store(0)
	m.sumVectorNS.Store(0)
}

// writePrometheus renders the server and engine counters in the
// Prometheus text exposition format (version 0.0.4). Histogram buckets
// accumulate left to right and carry le labels in seconds, per the
// Prometheus convention.
func writePrometheus(w io.Writer, srv MetricsSnapshot, eng spark.MetricsSnapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("rumble_queries_total", "Query evaluations started.", srv.Queries)
	counter("rumble_query_errors_total", "Query evaluations that failed.", srv.Errors)
	counter("rumble_rejected_total", "Requests rejected with 429.", srv.Rejected)
	counter("rumble_timeouts_total", "Requests that exceeded their deadline.", srv.Timeouts)
	counter("rumble_cancelled_total", "Requests whose client went away.", srv.Cancelled)
	counter("rumble_plan_cache_hits_total", "Compiled-plan cache hits.", srv.CacheHits)
	counter("rumble_plan_cache_misses_total", "Compiled-plan cache misses.", srv.CacheMisses)

	fmt.Fprintf(w, "# HELP rumble_queries_mode_total Query evaluations by execution mode.\n# TYPE rumble_queries_mode_total counter\n")
	for _, mc := range []struct {
		mode string
		n    int64
	}{{"local", srv.ModeLocal}, {"rdd", srv.ModeRDD}, {"dataframe", srv.ModeDataFrame}, {"vector", srv.ModeVector}} {
		fmt.Fprintf(w, "rumble_queries_mode_total{mode=%q} %d\n", mc.mode, mc.n)
	}

	fmt.Fprintf(w, "# HELP rumble_query_duration_seconds Query execution latency by mode.\n# TYPE rumble_query_duration_seconds histogram\n")
	for _, mh := range []struct {
		mode string
		h    HistogramSnapshot
	}{{"local", srv.LatencyLocal}, {"rdd", srv.LatencyRDD}, {"dataframe", srv.LatencyDataFrame}, {"vector", srv.LatencyVector}} {
		var cum int64
		for i, le := range mh.h.LeMS {
			cum += mh.h.Counts[i]
			fmt.Fprintf(w, "rumble_query_duration_seconds_bucket{mode=%q,le=%q} %d\n",
				mh.mode, formatLE(le/1000), cum)
		}
		fmt.Fprintf(w, "rumble_query_duration_seconds_bucket{mode=%q,le=\"+Inf\"} %d\n", mh.mode, mh.h.Count)
		fmt.Fprintf(w, "rumble_query_duration_seconds_sum{mode=%q} %s\n", mh.mode, formatLE(mh.h.SumMS/1000))
		fmt.Fprintf(w, "rumble_query_duration_seconds_count{mode=%q} %d\n", mh.mode, mh.h.Count)
	}

	gauge("rumble_plan_cache_size", "Compiled plans resident in the cache.", int64(srv.CachedPlans))
	gauge("rumble_plan_cache_bytes", "Approximate resident bytes of cached plans.", srv.CacheBytes)
	gauge("rumble_active_queries", "Evaluations running right now.", srv.Active)
	gauge("rumble_queued_queries", "Requests waiting for an executor slot.", srv.Queued)

	counter("rumble_engine_tasks_total", "Cluster partition tasks run.", eng.TasksRun)
	fmt.Fprintf(w, "# HELP rumble_engine_task_seconds_total Aggregated task time over the cluster.\n# TYPE rumble_engine_task_seconds_total counter\nrumble_engine_task_seconds_total %s\n",
		formatLE(eng.TaskTime.Seconds()))
	counter("rumble_engine_records_read_total", "Records read by scans.", eng.RecordsRead)
	counter("rumble_engine_shuffle_records_total", "Records shuffled between stages.", eng.ShuffleRecords)
	counter("rumble_engine_broadcast_records_total", "Build-side records broadcast for hash joins.", eng.BroadcastRecords)
	counter("rumble_engine_stages_total", "Cluster stages run.", eng.StagesRun)
	counter("rumble_engine_vector_runs_total", "Vector-backend pipeline evaluations.", eng.VectorRuns)
	counter("rumble_engine_vector_morsels_total", "Scan morsels processed by the vector backend.", eng.VectorMorsels)
	counter("rumble_engine_vector_workers_total", "Worker tasks launched by the vector backend.", eng.VectorWorkers)
	counter("rumble_engine_vector_sort_runs_total", "Vector pipeline evaluations that ran a columnar sort.", eng.VectorSortRuns)
	counter("rumble_engine_vector_topk_runs_total", "Vector pipeline evaluations that ran a fused top-k.", eng.VectorTopKRuns)
	counter("rumble_engine_vector_join_rows_total", "Rows emitted by vector hash-join probes, counted after the probe filter.", eng.VectorJoinRows)
	counter("rumble_engine_segments_read_total", "Columnar segments scanned by the vector backend.", eng.SegmentsRead)
	counter("rumble_engine_segments_skipped_total", "Segments skipped wholesale by zone-map pruning.", eng.SegmentsSkipped)
	counter("rumble_engine_segment_cache_hits_total", "Segment buffer-pool hits.", eng.SegmentCacheHits)
	counter("rumble_engine_segment_cache_miss_total", "Cold segment reads that decoded from disk.", eng.SegmentCacheMiss)
	counter("rumble_engine_segment_reingests_total", "Background segment rebuilds completed after a stale content hash.", eng.SegmentReingests)
	counter("rumble_engine_segment_source_hashes_total", "Full source hashes run at open to validate existing segments.", eng.SegmentSourceHashes)
	counter("rumble_engine_segment_ingests_total", "Segment datasets built, first touches and rebuilds.", eng.SegmentIngests)
	fmt.Fprintf(w, "# HELP rumble_engine_segment_ingest_seconds_total Wall time spent building segment datasets.\n# TYPE rumble_engine_segment_ingest_seconds_total counter\nrumble_engine_segment_ingest_seconds_total %s\n",
		formatLE(eng.SegmentIngestSeconds))
	counter("rumble_engine_segment_ingest_bytes_total", "Source bytes read by segment ingests.", eng.SegmentIngestBytes)
}

// formatLE renders a float the way Prometheus le labels and sample
// values expect: shortest plain decimal, no exponent for the bucket
// range we use.
func formatLE(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
