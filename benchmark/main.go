// Command benchmark is the one harness every performance claim about this
// engine is measured with. It drives the engine only through public entry
// points and the layer packages' exported functions (pins.go), generates
// its own seeded data, checks every result against an oracle, and prints
// every metric of BENCHMARK.json by name with its unit. README.md explains
// the workloads and metrics.
//
//	go run ./benchmark                       all five workloads, plain + traced
//	go run ./benchmark -workload segment_hot -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -quick                about 1/20 of the sizes, no bounds
//	go run ./benchmark -out a.json; go run ./benchmark -out b.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric describes one metric of BENCHMARK.json.
type metric struct {
	name, unit string
}

// endToEndMetrics are what a user of the engine sees, on every workload.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload bypasses reports 0 there.
var perLayer = []metric{
	// The tail of the plain pass. It is a diagnostic, not an end-to-end
	// metric with a bound, because it does not repeat (README.md).
	{"op_ms_p95", "ms"},
	{"frontend.compile_us_p50", "us"},
	{"dfs.read_mb_s", "MB/s"},
	{"dfs.write_mb_s", "MB/s"},
	{"jparse.parse_mb_s", "MB/s"},
	{"jparse.allocs_per_object", "count"},
	{"runtime.q_filter_ms_p50", "ms"},
	{"runtime.q_group_ms_p50", "ms"},
	{"runtime.q_sort_ms_p50", "ms"},
	{"runtime.q_reddit_filter_ms_p50", "ms"},
	{"runtime.q_reddit_messy_ms_p50", "ms"},
	{"runtime.q_seg_groupagg_ms_p50", "ms"},
	{"runtime.q_seg_strpred_ms_p50", "ms"},
	{"runtime.q_seg_pruned_ms_p50", "ms"},
	{"runtime.q_seg_topk_ms_p50", "ms"},
	{"runtime.q_seg_wholerow_ms_p50", "ms"},
	{"runtime.q_seg_join_ms_p50", "ms"},
	{"runtime.q_ingest_count_ms_p50", "ms"},
	{"runtime.q_write_proj_ms_p50", "ms"},
	{"runtime.execute_share", "ratio"},
	{"runtime.over_bare_scan_ratio", "ratio"},
	{"runtime.worker_busy_share", "ratio"},
	{"runtime.vector_morsels", "count/op"},
	{"spark.tasks_run", "count/op"},
	{"spark.shuffle_records", "count/op"},
	{"spark.records_read", "count/op"},
	{"spark.task_time_ms", "ms/op"},
	{"vector.compare_ns_per_row", "ns"},
	{"vector.group_update_ns_per_row", "ns"},
	{"segment.hash_mb_s", "MB/s"},
	{"segment.open_ms", "ms"},
	{"segment.fetch_cold_ms_per_segment", "ms"},
	{"segment.decoded_bytes_per_row", "B"},
	{"segment.fetch_hot_us_per_segment", "us"},
	{"segment.segments_read", "count/op"},
	{"segment.segments_skipped", "count/op"},
	{"segment.pool_hits", "count/op"},
	{"segment.pool_misses", "count/op"},
	{"segment.skip_ratio", "ratio"},
	{"segment.pool_hit_ratio", "ratio"},
	{"segment.ingest_mb_s", "MB/s"},
	{"segment.stored_bytes_per_source_byte", "ratio"},
	{"item.serialize_mb_s", "MB/s"},
	{"item.result_bytes_per_op", "B"},
	{"server.queue_ms_p50", "ms"},
	{"server.compile_ms_p50", "ms"},
	{"server.execute_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.ndjson_mb_s", "MB/s"},
	{"trace.overhead_ratio", "ratio"},
}

// hostInfo is the host line every output carries.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"` // Executors, Parallelism and serve_mixed clients
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func host(workers int) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), GitSHA: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

// results is the document -out writes and -compare reads.
type results struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// summary is the last line of standard output: the contract with the
// driver that runs one workload at a time.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadFlag := flag.String("workload", "", "run one workload (default: all five, each plain and traced)")
	seed := flag.Int64("seed", 2024, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	traceOut := flag.String("trace-out", "benchmark/out/trace.json", "where a traced run writes its spans")
	dataDir := flag.String("data", ".bench_build/data", "directory for generated data, removed after each workload")
	quick := flag.Bool("quick", false, "about 1/20 of the sizes, at least 20 ops, no bounds asserted")
	out := flag.String("out", "", "write the full results document here (input of -compare)")
	compare := flag.Bool("compare", false, "compare two results documents: -compare a.json b.json")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	// One process generates the load and runs the engine; both get
	// min(nproc, 4) cores, and the value is printed with the results.
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	rp := runPlan{seed: *seed, sizes: fullSizes, workers: workers, dataDir: *dataDir,
		minSetups: 3, maxSetups: 7, plainSecs: *seconds, minOps: 20}
	selected := workloads
	if *workloadFlag == "" {
		// The whole benchmark: every workload plain, then traced.
		rp.tracedSecs = *seconds * 0.6
	} else {
		selected = nil
		for _, w := range workloads {
			if w.name == *workloadFlag {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadFlag)
			return 2
		}
		if *trace == 1 {
			// A traced driver run splits its time between the plain pass
			// the overhead ratio needs and the traced pass; set-up time is
			// not reported, so one set-up is enough.
			rp.minSetups, rp.maxSetups = 1, 1
			rp.plainSecs, rp.tracedSecs = *seconds*0.4, *seconds*0.6
		}
	}
	if *quick {
		rp.sizes, rp.minSetups, rp.maxSetups = quickSizes, 1, 1
		rp.plainSecs, rp.tracedSecs = 0.2, min(rp.tracedSecs, 0.2)
	}

	doc := results{Host: host(workers), Seed: *seed, Quick: *quick, Workloads: map[string]*workloadResult{}}
	tf := traceFile{Host: doc.Host, SelfMS: map[string]map[string]float64{}, Overhead: map[string]float64{}}
	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	hostLine, _ := json.Marshal(doc.Host)
	fmt.Printf("host %s seed=%d quick=%v\n", hostLine, *seed, *quick)
	for _, w := range selected {
		res, err := runWorkload(w, rp)
		if err != nil {
			// A workload that cannot set up or replay has no result to print.
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		doc.Workloads[w.name] = res
		printWorkload(w.name, res)
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		shown := res.EndToEnd
		if *workloadFlag != "" && *trace == 1 {
			shown = res.PerLayer
		}
		for name, v := range shown {
			if *workloadFlag == "" {
				name = w.name + "/" + name
			}
			sum.Metrics[name] = metricValue{Value: v.Value, Unit: v.Unit}
		}
		if res.spans != nil {
			tf.Spans = append(tf.Spans, res.spans...)
			tf.SelfMS[w.name] = res.selfMS
			tf.Overhead[w.name] = res.PerLayer["trace.overhead_ratio"].Value
		}
	}
	if tf.Spans != nil {
		if err := writeJSONFile(*traceOut, tf); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tf.Spans), *traceOut)
	}
	if *out != "" {
		if err := writeJSONFile(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if err := os.Remove(*dataDir); err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// printWorkload prints every metric by name with its unit.
func printWorkload(name string, r *workloadResult) {
	info, _ := json.Marshal(r.Info)
	fmt.Printf("\n%s  correct=%v attempted=%d failed=%d  %s\n", name, r.Correct, r.Attempted, r.Failed, info)
	for _, e := range r.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
	for _, m := range endToEndMetrics {
		v := r.EndToEnd[m.name]
		fmt.Printf("  %-40s %14.4f %-8s block spread %.3f\n", m.name, v.Value, v.Unit, v.Spread)
	}
	if r.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Printf("  %-40s %14.4f %s\n", m.name, r.PerLayer[m.name].Value, m.unit)
	}
	names := make([]string, 0, len(r.selfMS))
	for n := range r.selfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  self time  %-29s %14.3f ms\n", n, r.selfMS[n])
	}
}
