// Command benchfig regenerates the paper's evaluation figures (11-15) on
// synthetic datasets: it generates the datasets, runs every engine of the
// evaluation on the paper's queries and prints the measured series as a
// table and, optionally, CSV.
//
//	benchfig -fig 11 -n 200000
//	benchfig -fig all -csv results.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rumble"
	"rumble/internal/baselines"
	"rumble/internal/baselines/pyspark"
	"rumble/internal/baselines/rawspark"
	"rumble/internal/baselines/singlenode"
	"rumble/internal/baselines/sparksql"
	"rumble/internal/datagen"
	"rumble/internal/spark"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

// figures maps each -fig value to its series, in the order -fig all runs.
var figures = []struct {
	name string
	run  func(options) ([]row, error)
}{{"11", figure11}, {"12", figure12}, {"13", figure13}, {"14", figure14}, {"15", figure15}}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ExitOnError)
	fs.SetOutput(stderr)
	o := options{executors: []int{1, 2, 4, 8, 16, 32}, scales: []int{1, 2, 4, 8, 16},
		parallelism: 8, executorCores: 4, splitSize: 1 << 20}
	fig := fs.String("fig", "all", "figure to reproduce: 11, 12, 13, 14, 15 or all")
	fs.IntVar(&o.objects, "n", 100_000, "dataset size in objects (base size for sweeps)")
	fs.StringVar(&o.dir, "data", "", "directory for generated datasets (default: temp)")
	csvPath := fs.String("csv", "", "also write results to this CSV file")
	fs.IntVar(&o.budget, "budget", 60_000, "single-node engines' materialization budget (items)")
	fs.DurationVar(&o.ioLatency, "iolatency", 0, "simulated storage latency per 64KiB block (figures 14/15)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.dir == "" {
		o.dir = filepath.Join(os.TempDir(), "rumble-bench")
	}
	n := o.objects
	o.sizes = []int{n / 8, n / 4, n / 2, n, 2 * n}

	var rows []row
	for _, f := range strings.Split(*fig, ",") {
		start := time.Now()
		ran := false
		for _, fg := range figures {
			if f != "all" && f != fg.name {
				continue
			}
			part, err := fg.run(o)
			if err != nil {
				return err
			}
			rows = append(rows, part...)
			ran = true
		}
		if !ran {
			return fmt.Errorf("unknown figure %q", f)
		}
		fmt.Fprintf(stderr, "figure %s done in %v\n", f, time.Since(start).Round(time.Millisecond))
	}
	printTable(stdout, rows)
	if *csvPath == "" {
		return nil
	}
	f, err := os.Create(*csvPath)
	if err != nil {
		return err
	}
	err = writeCSV(f, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// row is one measurement of a figure's series.
type row struct {
	figure    string
	engine    string
	query     string
	size      int     // number of objects
	executors int     // executor cores (figures 13/14)
	seconds   float64 // wall-clock end-to-end
	aggSecs   float64 // aggregated task time over the cluster (figure 14)
	status    string  // "ok", "oom" or "error: ..."
}

// options tunes a run; run's defaults are laptop-scale values that
// preserve the paper's shapes.
type options struct {
	dir     string // generated datasets
	objects int    // dataset size of figures 11, 13 and 14; base of figure 15
	sizes   []int  // the size sweep of figure 12
	// budget is the single-node engines' materialization budget in items
	// (the 16 GB of the paper's laptop, scaled).
	budget        int
	executors     []int // the executor sweep of figure 14
	scales        []int // the replication sweep of figure 15
	parallelism   int   // Spark context partitions
	executorCores int
	splitSize     int64         // storage split size for parallel scans
	ioLatency     time.Duration // storage latency simulation (figures 14/15)
}

// dataset generates (or reuses) a "confusion" or "reddit" dataset of n
// objects under dir and returns its path.
func dataset(dir, kind string, n int) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d", kind, n))
	if _, err := os.Stat(filepath.Join(path, "_SUCCESS")); err == nil {
		return path, nil
	}
	var gen datagen.Generator = datagen.NewConfusionGenerator(2024)
	if kind == "reddit" {
		gen = datagen.NewRedditGenerator(2024)
	}
	if err := datagen.WriteDataset(path, gen, n, min(max(n/25_000, 2), 32)); err != nil {
		return "", err
	}
	return path, nil
}

func timed(f func() error) (float64, string) {
	start := time.Now()
	err := f()
	secs := time.Since(start).Seconds()
	switch {
	case err == nil:
		return secs, "ok"
	case err == singlenode.ErrOutOfMemory:
		return secs, "oom"
	default:
		return secs, "error: " + err.Error()
	}
}

// rumbleEngine adapts the public rumble API to the baselines contract so
// it can be measured next to the hand-written engines.
type rumbleEngine struct{ eng *rumble.Engine }

func (r rumbleEngine) Name() string { return "Rumble" }

// Run answers the shared JSONiq formulations of the three standard
// queries (baselines.JSONiqQuery).
func (r rumbleEngine) Run(q baselines.Query, path string) (baselines.Result, error) {
	items, err := r.eng.Query(baselines.JSONiqQuery(q, path))
	if err != nil {
		return baselines.Result{}, err
	}
	switch q {
	case baselines.QueryFilter:
		if len(items) != 1 {
			return baselines.Result{}, fmt.Errorf("rumble adapter: filter returned %d items", len(items))
		}
		return baselines.Result{Count: int64(items[0].(rumble.Int))}, nil
	case baselines.QueryGroup, baselines.QuerySort:
		rows := make([]string, len(items))
		for i, it := range items {
			rows[i] = string(it.(rumble.Str))
		}
		if q == baselines.QueryGroup {
			sort.Strings(rows)
		}
		return baselines.Result{Count: int64(len(rows)), Rows: rows}, nil
	default:
		return baselines.Result{}, fmt.Errorf("rumble adapter: unknown query %v", q)
	}
}

// newRumble is the Rumble engine on o's cluster shape.
func newRumble(o options) rumbleEngine {
	return rumbleEngine{rumble.New(rumble.Config{Parallelism: o.parallelism, Executors: o.executorCores,
		SplitSize: o.splitSize, IOLatency: o.ioLatency})}
}

// sparkEngines builds the four Spark-based engines of figures 11/13 on
// fresh contexts.
func sparkEngines(o options) []baselines.Engine {
	cfg := spark.Config{Parallelism: o.parallelism, Executors: o.executorCores, IOLatency: o.ioLatency}
	return []baselines.Engine{
		newRumble(o),
		rawspark.New(spark.NewContext(cfg), o.splitSize),
		sparksql.New(spark.NewContext(cfg), o.splitSize),
		pyspark.New(spark.NewContext(cfg), o.splitSize),
	}
}

var allQueries = []baselines.Query{baselines.QueryFilter, baselines.QueryGroup, baselines.QuerySort}

// timeQuery times each engine on q over path, one row each on top of r.
func timeQuery(r row, q baselines.Query, path string, engines []baselines.Engine) []row {
	rows := make([]row, 0, len(engines))
	for _, e := range engines {
		r.engine, r.query = e.Name(), q.String()
		r.seconds, r.status = timed(func() error {
			_, err := e.Run(q, path)
			return err
		})
		rows = append(rows, r)
	}
	return rows
}

// figure11 reproduces the local measurements: Rumble vs Spark vs Spark
// SQL vs PySpark on the three standard queries over the confusion dataset.
func figure11(o options) ([]row, error) {
	return sparkFigure(row{figure: "11", size: o.objects}, o)
}

// sparkFigure times the Spark-based engines on every standard query over
// the confusion dataset of o.objects, one row each on top of r.
func sparkFigure(r row, o options) ([]row, error) {
	path, err := dataset(o.dir, "confusion", o.objects)
	if err != nil {
		return nil, err
	}
	engines := sparkEngines(o)
	var rows []row
	for _, q := range allQueries {
		rows = append(rows, timeQuery(r, q, path, engines)...)
	}
	return rows, nil
}

// figure12 reproduces the JSONiq-engine comparison: Rumble vs Zorba vs
// Xidel across dataset sizes, with the single-threaded engines' memory
// budget producing the paper's OOM cliffs. No storage latency is
// simulated: the single-node engines would not pay it.
func figure12(o options) ([]row, error) {
	o.ioLatency = 0
	var rows []row
	for _, q := range allQueries {
		for _, size := range o.sizes {
			path, err := dataset(o.dir, "confusion", size)
			if err != nil {
				return nil, err
			}
			rows = append(rows, timeQuery(row{figure: "12", size: size}, q, path, []baselines.Engine{
				newRumble(o),
				singlenode.New(singlenode.Zorba, o.budget),
				singlenode.New(singlenode.Xidel, o.budget/2),
			})...)
		}
	}
	return rows, nil
}

// figure13 reproduces the cluster measurements: the figure-11 engines on
// the 20x-duplicated dataset with the 9-node (36 core) configuration,
// scaled to the host.
func figure13(o options) ([]row, error) {
	o.objects = max(o.objects, 200_000) // the "20x duplication" scaled down
	o.executorCores *= 2
	o.parallelism *= 2
	return sparkFigure(row{figure: "13", size: o.objects, executors: o.executorCores}, o)
}

// figure14 reproduces the speedup analysis: a highly selective filter
// over the Reddit dataset for 1..32 executors, reporting both wall-clock
// runtime and the aggregated task time over the cluster. Storage latency
// simulation lets the overlap extend beyond the host's physical cores, as
// on the paper's EMR cluster.
func figure14(o options) ([]row, error) {
	if o.ioLatency == 0 {
		o.ioLatency = 2 * time.Millisecond
	}
	path, err := dataset(o.dir, "reddit", o.objects)
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf(`count(for $c in json-file(%q)
		where $c.score gt 1500 and contains($c.body, "data")
		return $c)`, path)
	var rows []row
	for _, ex := range o.executors {
		eng := rumble.New(rumble.Config{Parallelism: 64, Executors: ex,
			SplitSize: o.splitSize / 4, IOLatency: o.ioLatency})
		r := timeFilter(row{figure: "14", size: o.objects, executors: ex}, eng, q)
		r.aggSecs = eng.Metrics().TaskTime.Seconds()
		rows = append(rows, r)
	}
	return rows, nil
}

// figure15 reproduces the big-data scaling analysis: runtime of the
// filter query against replication factors of the Reddit dataset; the
// curve must stay linear.
func figure15(o options) ([]row, error) {
	var rows []row
	for _, scale := range o.scales {
		n := o.objects / 2 * scale
		path, err := dataset(o.dir, "reddit", n)
		if err != nil {
			return nil, err
		}
		q := fmt.Sprintf(`count(for $c in json-file(%q)
			where $c.subreddit eq "programming" and $c.score gt 100
			return $c)`, path)
		rows = append(rows, timeFilter(row{figure: "15", size: n}, newRumble(o).eng, q))
	}
	return rows, nil
}

// timeFilter times Rumble's filter query q on eng, as one row on top of r.
func timeFilter(r row, eng *rumble.Engine, q string) row {
	r.engine, r.query = "Rumble", "filter"
	r.seconds, r.status = timed(func() error {
		_, err := eng.Query(q)
		return err
	})
	return r
}

// printTable renders rows as an aligned text table.
func printTable(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-6s %-9s %-7s %10s %5s %9s %9s  %s\n",
		"figure", "engine", "query", "objects", "exec", "wall(s)", "agg(s)", "status")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-9s %-7s %10d %5d %9.3f %9.3f  %s\n",
			r.figure, r.engine, r.query, r.size, r.executors, r.seconds, r.aggSecs, r.status)
	}
}

// writeCSV renders rows as CSV.
func writeCSV(w io.Writer, rows []row) error {
	if _, err := fmt.Fprintln(w, "figure,engine,query,objects,executors,wall_seconds,agg_seconds,status"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.4f,%.4f,%s\n",
			r.figure, r.engine, r.query, r.size, r.executors, r.seconds, r.aggSecs, r.status); err != nil {
			return err
		}
	}
	return nil
}
