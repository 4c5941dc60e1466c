// Package lint is the repository's first-party static-analysis framework.
// It mirrors the shape of golang.org/x/tools/go/analysis — Analyzer / Pass /
// Diagnostic, with package lintest as loader and analysistest-style fixture
// runner — but is implemented entirely on the standard library
// (go/ast, go/parser, go/types), because this repository builds hermetically
// with no module downloads. The API is kept deliberately close to
// go/analysis so the analyzers could be ported onto the upstream framework
// mechanically if a vendored x/tools ever becomes available.
//
// The analyzers in the sub-packages machine-check the simulator's
// determinism invariants: no wall clock and no map order that reaches an
// event (each package's doc comment states its rule; DESIGN.md §9 has the
// table). TestTree in this package runs all of them over every package of
// the module, so `go test ./...` is the lint gate.
//
// There is no suppression comment: a finding is fixed, or the analyzer is
// strengthened until it can prove the flagged pattern safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description of the invariant.
	Doc string
	// Run applies the analyzer to a single type-checked package,
	// reporting findings through pass.Report*.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Unit is the input shared by every analyzer run on one package: the parsed
// files plus full type information.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Callers type-check with it and then hand it to Run.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Run applies one analyzer to one unit and returns its findings sorted by
// position.
func Run(a *Analyzer, u *Unit) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      u.Fset,
		Files:     u.Files,
		Pkg:       u.Pkg,
		TypesInfo: u.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.SliceStable(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// deterministicDirs are the kernel-driven packages in which simulated time
// and seeded RNGs are the only legal sources of time and randomness, and in
// which map iteration must not order observable events. The list mirrors
// DESIGN.md §"Determinism & lifetime invariants".
var deterministicDirs = []string{
	"sim", "fds", "radio", "cluster", "intercluster",
	"membership", "sleep", "mobility", "scenario", "montecarlo", "shard",
	"transport", "daemon", "conformance", "baseline",
	"par", "dense", "node", "wire", "aggregate",
}

// DeterministicPackage reports whether the import path names one of the
// deterministic simulator packages (clusterfds/internal/<dir> or a
// sub-package of one).
func DeterministicPackage(path string) bool {
	for _, d := range deterministicDirs {
		p := "clusterfds/internal/" + d
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// TestFile reports whether pos lies in a _test.go file. walltime and detmap
// guard the simulator's own event order, so they skip test files.
func TestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PkgFunc returns the *types.Func a call's callee names — a package-level
// function or a method selector — or nil.
func PkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
