// Command docscheck keeps the documentation's embedded --explain snippets
// honest: it scans a markdown file for fenced ```jsoniq blocks that are
// followed by a fenced ```explain block, regenerates each plan through the
// real compiler, and fails (exit 1) when the committed snippet has drifted
// from what the engine actually prints. CI runs it against
// docs/query-cookbook.md; -update rewrites the file in place instead.
//
// An ```explain block renders the default engine's plan; ```explain
// vectorize renders the plan under Config{Vectorize: true}, pinning the
// Mode=Vector backend choices the cookbook demonstrates. An ```explain
// analyze block (optionally with the vectorize suffix) goes further: it
// executes the query and checks the live per-operator annotations —
// row counts, batch counts, plan shape — with the wall-clock figures
// masked to ?ms, since only the timings are run-dependent. Analyze
// queries must therefore be self-contained (no external files) — except
// under ```explain analyze segments, which runs the query on a fresh
// Vectorize+Segments engine with two executors over the collections the
// document itself defines: every ```jsonl <name> block above it is written
// to a scratch directory and registered as collection(<name>), so the plan
// shows the first-touch ingest of storage nobody has read before.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"rumble"
)

func main() {
	update := flag.Bool("update", false, "rewrite the explain blocks in place instead of checking them")
	flag.Parse()
	path := "docs/query-cookbook.md"
	if flag.NArg() > 0 {
		path = flag.Arg(0)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	out, drift, err := Process(string(data))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("docscheck: %s: %d explain block(s) regenerated\n", path, len(drift))
		return
	}
	if len(drift) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %s: %d stale explain block(s):\n", path, len(drift))
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "\n--- query ---\n%s\n--- documented plan ---\n%s--- regenerated plan ---\n%s", d.Query, d.Old, d.New)
		}
		fmt.Fprintln(os.Stderr, "\nrun `go run ./cmd/docscheck -update` to refresh")
		os.Exit(1)
	}
	fmt.Printf("docscheck: %s: all explain blocks fresh\n", path)
}

// Drift describes one stale explain block.
type Drift struct {
	Query    string
	Old, New string
}

// Process walks the markdown source, regenerating every explain block that
// documents the preceding jsoniq block. It returns the rewritten source
// and the list of blocks whose committed text differed.
func Process(src string) (string, []Drift, error) {
	plain := rumble.New(rumble.Config{})
	vectorized := rumble.New(rumble.Config{Vectorize: true})

	lines := strings.Split(src, "\n")
	var out []string
	var drift []Drift
	var query string   // pending jsoniq block, waiting for its explain block
	var names []string // collections the document defined so far, and their lines
	data := map[string]string{}
	for i := 0; i < len(lines); {
		line := lines[i]
		fence := strings.TrimSpace(line)
		switch {
		case fence == "```jsoniq":
			body, next, err := fencedBlock(lines, i)
			if err != nil {
				return "", nil, err
			}
			query = body
			out = append(out, lines[i:next]...)
			i = next
		case strings.HasPrefix(fence, "```jsonl "):
			body, next, err := fencedBlock(lines, i)
			if err != nil {
				return "", nil, err
			}
			name := strings.TrimSpace(strings.TrimPrefix(fence, "```jsonl "))
			if _, seen := data[name]; !seen {
				names = append(names, name)
			}
			data[name] = body + "\n"
			out = append(out, lines[i:next]...)
			i = next
		case fence == "```explain" || fence == "```explain vectorize",
			fence == "```explain analyze" || fence == "```explain analyze vectorize",
			fence == "```explain analyze segments":
			if query == "" {
				return "", nil, fmt.Errorf("line %d: explain block without a preceding jsoniq block", i+1)
			}
			body, next, err := fencedBlock(lines, i)
			if err != nil {
				return "", nil, err
			}
			eng := plain
			if strings.HasSuffix(fence, " vectorize") {
				eng = vectorized
			}
			var plan string
			if fence == "```explain analyze segments" {
				plan, err = analyzeOverFiles(query, names, data)
				plan = maskTimings(plan)
			} else if strings.HasPrefix(fence, "```explain analyze") {
				plan, err = eng.ExplainAnalyze(query)
				plan = maskTimings(plan)
			} else {
				plan, err = eng.Explain(query)
			}
			if err != nil {
				return "", nil, fmt.Errorf("line %d: explain failed: %v\nquery:\n%s", i+1, err, query)
			}
			if body != strings.TrimRight(plan, "\n") {
				drift = append(drift, Drift{Query: query, Old: body + "\n", New: plan})
			}
			out = append(out, line)
			out = append(out, strings.Split(strings.TrimRight(plan, "\n"), "\n")...)
			out = append(out, "```")
			i = next
			query = ""
		default:
			// Prose between a jsoniq block and its explain block is fine;
			// a new heading or block resets nothing — the pairing is
			// simply "next explain block after a jsoniq block".
			out = append(out, line)
			i++
		}
	}
	return strings.Join(out, "\n"), drift, nil
}

// analyzeOverFiles runs explain-analyze on a fresh segment-store engine whose
// collections are files written just now, so the run pays their first touch.
func analyzeOverFiles(query string, names []string, data map[string]string) (string, error) {
	dir, err := os.MkdirTemp("", "docscheck-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	eng := rumble.New(rumble.Config{Vectorize: true, Segments: true, Executors: 2})
	for _, name := range names {
		path := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(path, []byte(data[name]), 0o644); err != nil {
			return "", err
		}
		eng.RegisterCollection(name, path)
	}
	return eng.ExplainAnalyze(query)
}

// timingRE matches the wall-clock figures explain-analyze renders (the
// per-operator annotations and the result/workers footers).
var timingRE = regexp.MustCompile(`\d+\.\d{2}ms`)

// maskTimings replaces every wall-clock figure in an analyze rendering
// with ?ms, leaving the deterministic parts — plan shape, row counts,
// batch counts, worker counts — for the freshness check.
func maskTimings(s string) string { return timingRE.ReplaceAllString(s, "?ms") }

// fencedBlock returns the body of the fenced block opening at line i and
// the index just past its closing fence.
func fencedBlock(lines []string, i int) (string, int, error) {
	var body []string
	for j := i + 1; j < len(lines); j++ {
		if strings.TrimSpace(lines[j]) == "```" {
			return strings.Join(body, "\n"), j + 1, nil
		}
		body = append(body, lines[j])
	}
	return "", 0, fmt.Errorf("line %d: unterminated fenced block", i+1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(1)
}
