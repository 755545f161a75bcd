// Command rumble executes JSONiq queries from the command line, an
// interactive shell, or a long-lived HTTP server, the way the Rumble jar
// does:
//
//	rumble -q 'for $x in parallelize(1 to 5) return $x * $x'
//	rumble -f query.jq --output out-dir
//	rumble                # starts the shell
//	rumble serve --listen :8090 --collection data=/data/part-files
//	rumble ingest /data/part-files
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"rumble"
	"rumble/internal/segment"
	"rumble/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ingest" {
		ingestMain(os.Args[2:])
		return
	}
	var (
		query          = flag.String("q", "", "JSONiq query text")
		file           = flag.String("f", "", "file containing the JSONiq query")
		output         = flag.String("output", "", "write results to this directory as JSON-Lines part files")
		parallelism    = flag.Int("parallelism", 8, "default number of partitions")
		executors      = flag.Int("executors", 4, "concurrent executor slots")
		maxResults     = flag.Int("max-results", 1000, "shell materialization cap (0 = unlimited)")
		showTime       = flag.Bool("time", false, "print execution time")
		explain        = flag.Bool("explain", false, "print the mode-annotated physical plan instead of executing")
		explainAnalyze = flag.Bool("explain-analyze", false, "execute the query and print the plan annotated with live per-operator statistics")
		vectorize      = flag.Bool("vectorize", false, "compile eligible pipelines to the columnar local backend (Mode=Vector)")
		segments       = flag.Bool("segments", false, "serve storage-backed scans from the columnar segment store (ingesting `.segments` siblings on first touch)")
		segCacheBytes  = flag.Int64("segment-cache-bytes", 0, "segment buffer pool budget in bytes (0 = 64 MiB)")
	)
	flag.Parse()

	eng := rumble.New(rumble.Config{
		Parallelism:       *parallelism,
		Executors:         *executors,
		MaxResultItems:    *maxResults,
		Vectorize:         *vectorize,
		Segments:          *segments,
		SegmentCacheBytes: *segCacheBytes,
	})

	text := *query
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		text = string(data)
	}
	if *explain {
		if text == "" {
			fatal(fmt.Errorf("--explain requires a query (-q or -f)"))
		}
		if err := explainQuery(os.Stdout, eng, text); err != nil {
			fatal(err)
		}
		return
	}
	if *explainAnalyze {
		if text == "" {
			fatal(fmt.Errorf("--explain-analyze requires a query (-q or -f)"))
		}
		if err := explainAnalyzeQuery(os.Stdout, eng, text); err != nil {
			fatal(err)
		}
		return
	}
	if text == "" {
		shell(eng, *showTime, *maxResults)
		return
	}
	if err := runQuery(eng, text, *output, *showTime, *maxResults); err != nil {
		fatal(err)
	}
}

// collectionFlags collects repeated --collection name=path registrations.
type collectionFlags []string

func (c *collectionFlags) String() string { return strings.Join(*c, ",") }

func (c *collectionFlags) Set(v string) error {
	if _, _, ok := strings.Cut(v, "="); !ok {
		return fmt.Errorf("expected name=path, got %q", v)
	}
	*c = append(*c, v)
	return nil
}

// ingestMain converts JSON-Lines sources into their columnar `.segments`
// siblings ahead of serving, so the first --segments query pays no
// one-time ingest. Re-running after the source changed refreshes the
// segments; an unchanged source is re-ingested as written (ingest is
// idempotent in content, cheap relative to serving cold).
func ingestMain(args []string) {
	fs := flag.NewFlagSet("rumble ingest", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("usage: rumble ingest <json-lines path>..."))
	}
	for _, path := range fs.Args() {
		ds, err := segment.IngestDataset(path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d rows in %d segments -> %s\n", path, ds.Manifest.Rows, ds.NumSegments(), ds.Dir)
	}
}

// serveMain runs the long-lived HTTP query server: POST /query with a plan
// cache and admission control, GET /explain, /metrics and /healthz.
func serveMain(args []string) {
	fs := flag.NewFlagSet("rumble serve", flag.ExitOnError)
	var (
		listen        = fs.String("listen", ":8090", "address to serve HTTP on")
		parallelism   = fs.Int("parallelism", 8, "default number of partitions")
		executors     = fs.Int("executors", 4, "concurrent executor slots")
		maxConcurrent = fs.Int("max-concurrent", 0, "concurrent query evaluations (0 = executor count)")
		queueDepth    = fs.Int("queue-depth", 0, "requests allowed to queue beyond max-concurrent before 429 (0 = 2x max-concurrent)")
		cacheBytes    = fs.Int64("plan-cache-bytes", 8<<20, "compiled-plan LRU cache budget in approximate resident bytes")
		timeout       = fs.Duration("timeout", 30*time.Second, "default per-request evaluation deadline (0 = none)")
		maxResult     = fs.Int("max-result-items", 1_000_000, "reject unlimited results larger than this (0 = unbounded)")
		vectorize     = fs.Bool("vectorize", false, "compile eligible pipelines to the columnar local backend (Mode=Vector)")
		segments      = fs.Bool("segments", false, "serve storage-backed scans from the columnar segment store (ingesting `.segments` siblings on first touch)")
		segCacheBytes = fs.Int64("segment-cache-bytes", 0, "segment buffer pool budget in bytes (0 = 64 MiB)")
		slowQueryMS   = fs.Int("slow-query-ms", 0, "log a JSON profile line to stderr for queries at or above this total time (0 = off)")
		enablePprof   = fs.Bool("enable-pprof", false, "mount net/http/pprof under /debug/pprof/")
		profileRing   = fs.Int("profile-ring", 0, "recent query profiles kept for GET /debug/queries (0 = 128)")
	)
	var colls collectionFlags
	fs.Var(&colls, "collection", "register a name=path JSON-Lines collection (repeatable)")
	fs.Parse(args)

	eng := rumble.New(rumble.Config{
		Parallelism: *parallelism, Executors: *executors, Vectorize: *vectorize,
		Segments: *segments, SegmentCacheBytes: *segCacheBytes,
	})
	for _, c := range colls {
		name, path, _ := strings.Cut(c, "=")
		eng.RegisterCollection(name, path)
	}
	opt := server.Options{
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		PlanCacheBytes: *cacheBytes,
		DefaultTimeout: *timeout,
		MaxResultItems: *maxResult,
		SlowQueryMS:    *slowQueryMS,
		EnablePprof:    *enablePprof,
		ProfileRing:    *profileRing,
	}
	if *timeout == 0 {
		opt.DefaultTimeout = -1 // explicit 0 means "no default deadline"
	}
	if *maxResult == 0 {
		opt.MaxResultItems = -1 // explicit 0 means "unbounded"
	}
	srv := server.New(eng, opt)
	fmt.Fprintf(os.Stderr, "rumble: serving JSONiq on %s (POST /query, GET /explain, /metrics, /healthz)\n", *listen)
	fatal(http.ListenAndServe(*listen, srv.Handler()))
}

// explainQuery prints the statically annotated physical plan of one query.
func explainQuery(out io.Writer, eng *rumble.Engine, text string) error {
	plan, err := eng.Explain(text)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, plan)
	return err
}

// explainAnalyzeQuery executes one query and prints the plan annotated
// with the run's per-operator statistics.
func explainAnalyzeQuery(out io.Writer, eng *rumble.Engine, text string) error {
	plan, err := eng.ExplainAnalyze(text)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, plan)
	return err
}

func runQuery(eng *rumble.Engine, text, output string, showTime bool, maxResults int) error {
	return runQueryTo(os.Stdout, os.Stderr, eng, text, output, showTime, maxResults)
}

// errCapped aborts streaming once the shell materialization cap is hit.
var errCapped = errors.New("result capped")

// runQueryTo compiles and runs one query, streaming results to out; status
// messages (timings) go to errw. When maxResults > 0 the printed result is
// capped at that many items and the truncation is announced on out, so a
// cap never silently swallows results.
func runQueryTo(out, errw io.Writer, eng *rumble.Engine, text, output string, showTime bool, maxResults int) error {
	start := time.Now()
	st, err := eng.Compile(text)
	if err != nil {
		return err
	}
	if output != "" {
		if err := st.WriteTo(output); err != nil {
			return err
		}
		if showTime {
			fmt.Fprintf(errw, "written to %s in %v\n", output, time.Since(start))
		}
		return nil
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	n := 0
	err = st.Stream(func(it rumble.Item) error {
		if maxResults > 0 && n >= maxResults {
			return errCapped
		}
		n++
		w.Write(it.AppendJSON(nil))
		return w.WriteByte('\n')
	})
	switch {
	case errors.Is(err, errCapped):
		fmt.Fprintf(w, "... (capped at %d items; rerun with --max-results 0 for the full result)\n", maxResults)
	case err != nil:
		return err
	}
	if showTime {
		w.Flush()
		fmt.Fprintf(errw, "%d items in %v\n", n, time.Since(start))
	}
	return nil
}

// shell runs the interactive REPL. Like the Rumble shell, the cluster
// context is set up once at launch and queries run against it; a trailing
// blank line submits the query.
func shell(eng *rumble.Engine, showTime bool, maxResults int) {
	shellOn(os.Stdin, os.Stdout, os.Stderr, eng, showTime, maxResults)
}

// shellOn runs the REPL over explicit streams. A submission starting with
// the word "explain" prints the query's mode-annotated physical plan
// instead of executing it, mirroring rumble --explain.
func shellOn(in io.Reader, out, errw io.Writer, eng *rumble.Engine, showTime bool, maxResults int) {
	fmt.Fprintln(out, "Rumble-Go shell — JSONiq on a Spark-like engine")
	fmt.Fprintln(out, `Type a query and finish with an empty line. "explain <query>" prints its plan,`)
	fmt.Fprintln(out, `"explain analyze <query>" runs it and prints the plan with live statistics. "quit" exits.`)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf []string
	for {
		if len(buf) == 0 {
			fmt.Fprint(out, "jsoniq$ ")
		} else {
			fmt.Fprint(out, "      > ")
		}
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if len(buf) == 0 && (trimmed == "quit" || trimmed == "exit") {
			return
		}
		if trimmed != "" {
			buf = append(buf, line)
			continue
		}
		if len(buf) == 0 {
			continue
		}
		text := strings.Join(buf, "\n")
		buf = nil
		if q, ok := explainCommand(text); ok {
			render := explainQuery
			if qa, analyze := explainAnalyzeCommand(q); analyze {
				render, q = explainAnalyzeQuery, qa
			}
			if err := render(out, eng, q); err != nil {
				fmt.Fprintln(errw, "error:", err)
			}
			continue
		}
		if err := runQueryTo(out, errw, eng, text, "", showTime, maxResults); err != nil {
			fmt.Fprintln(errw, "error:", err)
		}
	}
}

// explainCommand recognizes an "explain <query>" shell submission and
// returns the query text.
func explainCommand(text string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "explain")
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\n') {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// explainAnalyzeCommand recognizes the "analyze <query>" tail of an
// "explain analyze <query>" shell submission.
func explainAnalyzeCommand(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "analyze")
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\n') {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rumble:", err)
	os.Exit(1)
}
