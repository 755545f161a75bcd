// Command rumblevet runs the repository's invariant analyzers over the
// module and exits non-zero when any invariant is violated. It is the CI
// gate behind the engine's semantic guarantees that the Go compiler cannot
// check: deterministic emit order, cooperative cancellation, JSONiq value
// equality, metric registry completeness, exhaustive mode dispatch, and
// goroutines that contain their panics.
//
// Usage:
//
//	go run ./cmd/rumblevet ./...
//	go run ./cmd/rumblevet ./internal/spark ./internal/runtime
//
// Findings print as file:line:col: [analyzer] message. Individual findings
// are suppressed in source with //rumble:<class>-ok <justification>; the
// justification is mandatory. See docs/development.md for the invariant
// catalogue.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rumble/internal/analysis"
	"rumble/internal/analysis/ctxpoll"
	"rumble/internal/analysis/detorder"
	"rumble/internal/analysis/gosafe"
	"rumble/internal/analysis/itemcmp"
	"rumble/internal/analysis/metricsreg"
	"rumble/internal/analysis/modecase"
)

// scoped pairs an analyzer with the packages it gates. Determinism and
// cancellation are properties of the execution layers, and gosafe of the
// engine under internal/; the remaining passes are cheap and safe
// module-wide (metricsreg no-ops without a Metrics struct, itemcmp skips
// internal/item itself).
type scoped struct {
	analyzer *analysis.Analyzer
	match    func(path string) bool
}

func suffixIn(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if strings.HasSuffix(path, s) {
				return true
			}
		}
		return false
	}
}

func everywhere(string) bool { return true }

var suite = []scoped{
	{detorder.Analyzer, suffixIn("internal/runtime", "internal/vector", "internal/spark", "internal/segment", "internal/jparse", "internal/sched", "internal/orderby")},
	{ctxpoll.Analyzer, suffixIn("internal/runtime", "internal/spark", "internal/sched", "internal/orderby")},
	{gosafe.Analyzer, func(path string) bool { return strings.Contains(path, "/internal/") }},
	{itemcmp.Analyzer, everywhere},
	{metricsreg.Analyzer, everywhere},
	{modecase.Analyzer, everywhere},
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	dirs, err := expand(loader, patterns)
	if err != nil {
		fatal(err)
	}
	var all []analysis.Diagnostic
	for _, dir := range dirs {
		path := importPath(loader, dir)
		var wanted []*analysis.Analyzer
		for _, s := range suite {
			if s.match(path) {
				wanted = append(wanted, s.analyzer)
			}
		}
		if len(wanted) == 0 {
			continue
		}
		pkg, err := loader.Load(dir, path)
		if err != nil {
			fatal(err)
		}
		diags, err := analysis.Run(pkg, wanted...)
		if err != nil {
			fatal(err)
		}
		all = append(all, diags...)
	}
	for _, d := range all {
		fmt.Println(d)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "rumblevet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rumblevet:", err)
	os.Exit(2)
}

// expand resolves the command-line patterns to package directories. "..."
// patterns walk the tree; plain arguments name single package directories.
// Directories named testdata, docs, or starting with "." or "_" are skipped,
// matching the go tool's package discovery rules.
func expand(l *analysis.Loader, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			root, recursive = ".", true
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "docs" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// importPath maps a package directory to its module import path.
func importPath(l *analysis.Loader, dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}
