// Package gosafe forbids bare go statements outside the task runner.
//
// A panic on a goroutine nobody recovers takes down the whole process —
// for `rumble serve`, every client's query at once. internal/sched is the
// one place goroutines start: its Ordered, Go and Safely turn a panic into
// an error for the statement that caused it, and join every goroutine they
// start. A go statement anywhere else compiles fine and reintroduces the
// crash, so rumblevet runs this pass over internal/ and rejects it. There
// is no escape comment: code that needs a goroutine starts it with sched.Go.
package gosafe

import (
	"go/ast"
	"strings"

	"rumble/internal/analysis"
)

// Analyzer is the gosafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "gosafe",
	Doc:  "forbid bare go statements outside internal/sched; start goroutines through sched.Go or sched.Ordered, which contain panics",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/sched") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement: a panic on this goroutine crashes the process; start it with sched.Go or run the work through sched.Ordered")
			}
			return true
		})
	}
	return nil
}
