// Package ctxpoll enforces cooperative cancellation in data loops.
//
// Evaluation is cancellable only because every driving loop polls the Go
// context at checkpoints (PR 3): local iterators check dc.GoContext()
// periodically, cluster task loops poll through spark.WithCancel. A new
// iterator whose loop forgets the checkpoint compiles fine and hangs a
// server slot until the query finishes — the class of bug this analyzer
// makes impossible.
//
// The rule: every function whose body contains a loop that directly calls
// a yield-style callback (the push-based streaming protocol of
// internal/runtime and internal/spark) must reach a cancellation
// checkpoint. Reaching one means any of:
//
//   - polling directly: referencing GoContext, cancelOf, WithCancel, or
//     calling Err on a context;
//   - delegating to a child that polls: calling a Stream, streamTuples,
//     compute, runStage, or runOnce method — the loop drains a source that
//     checkpoints itself;
//   - materializing through the runtime first: Materialize, MaterializeN,
//     CollectRDD and RDD Scan all pass through checkpointing streams, and a
//     loop emitting an already-materialized sequence is bounded by it.
//
// Loops that are provably bounded and checkpoint-free on purpose carry
//
//	//rumble:ctxpoll-ok <why the loop cannot run unbounded>
//
// on the loop line or the line above.
package ctxpoll

import (
	"go/ast"

	"rumble/internal/analysis"
)

// Analyzer is the ctxpoll pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "every yield-driving loop must reach a GoContext cancellation checkpoint (directly or by delegating to a checkpointing child)",
	Run:  run,
}

// checkpointNames are identifiers whose presence in a function marks a
// direct cancellation checkpoint.
var checkpointNames = map[string]bool{
	"GoContext":  true, // dc.GoContext() resolution
	"cancelOf":   true, // runtime's ctx→poll adapter
	"WithCancel": true, // spark's cooperative task-loop wrapper
	"Err":        true, // ctx.Err() polling
}

// delegationNames are method calls that hand iteration to a child which
// performs its own checkpointing.
var delegationNames = map[string]bool{
	"Stream":       true,
	"streamTuples": true,
	"compute":      true,
	"runStage":     true,
	"runOnce":      true, // shuffle exchange: runs a checkpointing stage
	"Materialize":  true,
	"MaterializeN": true,
	"CollectRDD":   true,
	"Scan":         true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			loops := yieldLoops(fd.Body)
			if len(loops) == 0 {
				continue
			}
			if hasCheckpoint(fd.Body) {
				continue
			}
			for _, loop := range loops {
				if analysis.Suppress(pass, "ctxpoll", loop.Pos()) {
					continue
				}
				pass.Reportf(loop.Pos(),
					"yield loop in %s has no reachable GoContext cancellation checkpoint; poll ctx.Err (or delegate to a checkpointing Stream/compute) or annotate //rumble:ctxpoll-ok <why bounded>",
					fd.Name.Name)
			}
		}
	}
	return nil
}

// yieldLoops returns the outermost for/range statements under body whose
// body calls an identifier named yield. Nested loops inside a flagged loop
// are the same finding, so the walk does not descend into them.
func yieldLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		if callsYield(loopBody) {
			loops = append(loops, n.(ast.Stmt))
			return false
		}
		return true
	})
	return loops
}

// callsYield reports whether any call to an identifier named "yield"
// appears under n (the streaming callback convention of this codebase).
func callsYield(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "yield" {
			found = true
		}
		return !found
	})
	return found
}

// hasCheckpoint reports whether the function body references a direct
// checkpoint or delegates to a checkpointing child anywhere.
func hasCheckpoint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if checkpointNames[e.Sel.Name] || delegationNames[e.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if checkpointNames[e.Name] || delegationNames[e.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}
