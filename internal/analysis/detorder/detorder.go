// Package detorder forbids ranging over maps in deterministic-order paths.
//
// The engine guarantees bit-identical emit order at every worker count:
// morsel results merge in scan-index order, shuffle consumers replay
// buckets, and conformance pins results across Executors ∈ {1,2,8}. A
// `range` over a map silently breaks that guarantee — Go randomizes map
// iteration order per run — so in the packages that uphold ordered emit
// (internal/runtime, internal/vector, internal/spark, internal/jparse) or
// byte-deterministic output (internal/segment: the files an ingest writes
// are identical at every worker count) every map iteration must either
// follow a recorded deterministic order (first-seen slice, sorted keys) or
// carry an explicit escape:
//
//	//rumble:nondeterministic-ok <why the order cannot be observed>
//
// on the range line or the line above. The justification is mandatory.
package detorder

import (
	"go/ast"
	"go/types"

	"rumble/internal/analysis"
)

// Analyzer is the detorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc:  "forbid range-over-map in deterministic-order packages (emit order must be bit-identical at every worker count)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if analysis.Suppress(pass, "nondeterministic", rs.Pos()) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map %s iterates in nondeterministic order; emit through a recorded order (first-seen slice, sorted keys) or annotate //rumble:nondeterministic-ok <why>",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
			return true
		})
	}
	return nil
}
