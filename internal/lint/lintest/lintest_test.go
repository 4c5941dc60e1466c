package lintest_test

import (
	"go/ast"
	"go/types"
	"testing"

	"clusterfds/internal/lint"
	"clusterfds/internal/lint/lintest"
)

// probe flags every ++/-- statement: a minimal analyzer for exercising the
// runner itself — multi-file fixtures and want-comment placement —
// independent of any real invariant.
var probe = &lint.Analyzer{
	Name: "probe",
	Doc:  "flag every increment/decrement statement (lintest self-test)",
	Run: func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if inc, ok := n.(*ast.IncDecStmt); ok {
					pass.Reportf(inc.Pos(), "increment or decrement of %s", types.ExprString(inc.X))
				}
				return true
			})
		}
		return nil
	},
}

// TestMultiFileFixture proves wants and diagnostics pair up per file when a
// fixture package spans several files, and that a want comment alone on
// its line attaches to the line above.
func TestMultiFileFixture(t *testing.T) {
	lintest.Run(t, "testdata", probe, "probefix")
}
