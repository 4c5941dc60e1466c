package lint_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"clusterfds/internal/lint"
)

// deterministicDirs are the kernel-driven packages below internal/ in which
// simulated time and seeded RNGs are the only legal sources of time and
// randomness: every run is a pure function of (scenario, seed). DESIGN.md §9
// names them.
var deterministicDirs = []string{
	"sim", "fds", "radio", "cluster", "intercluster",
	"membership", "sleep", "mobility", "scenario", "montecarlo", "shard",
	"transport", "daemon", "conformance", "baseline",
	"par", "dense", "node", "wire", "aggregate",
}

// deterministic reports whether the import path names one of the
// deterministic packages or a sub-package of one.
func deterministic(path string) bool {
	for _, d := range deterministicDirs {
		p := "clusterfds/internal/" + d
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// wallClock lists the time package functions that read or act on the wall
// clock or the runtime timer heap.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// walltime returns a message for each call in u, outside _test.go files, to
// a wall-clock function of package time or to a package-level math/rand or
// math/rand/v2 function that draws from the global source. Constructors
// (rand.New, rand.NewSource, rand.NewPCG, ...) and methods on an explicit
// *rand.Rand or time.Time stay legal, as do time values used as plain data.
// Test files are exempt: the rule guards the simulator's own event order,
// not the harness around it.
func walltime(u *lint.Unit, report func(ast.Node, string)) {
	if !deterministic(u.Pkg.Path()) {
		return
	}
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			fn, _ := u.Info.Uses[id].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch p := fn.Pkg().Path(); {
			case p == "time" && wallClock[fn.Name()]:
				report(call, fmt.Sprintf("time.%s in deterministic package %s: simulated time only (use the sim kernel's clock and timers)",
					fn.Name(), u.Pkg.Path()))
			case (p == "math/rand" || p == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
				report(call, fmt.Sprintf("global %s.%s in deterministic package %s: seeded *rand.Rand only (rand.New(rand.NewSource(seed)))",
					p, fn.Name(), u.Pkg.Path()))
			}
			return true
		})
	}
}

// findings runs the walltime rule over every unit of the tree at root and
// returns one "file:line:col: message" line per finding, with the file
// relative to root, plus the directories the units' files came from and the
// number of units.
func findings(t *testing.T, root, prefix string) (lines []string, dirs map[string]bool, units int) {
	t.Helper()
	us, err := lint.Tree(root, prefix)
	if err != nil {
		t.Fatalf("loading %s: %v", root, err)
	}
	rel := func(file string) string {
		r, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.ToSlash(r)
	}
	dirs = make(map[string]bool)
	for _, u := range us {
		for _, f := range u.Files {
			dirs[filepath.Dir(rel(u.Fset.Position(f.Pos()).Filename))] = true
		}
		walltime(u, func(n ast.Node, msg string) {
			pos := u.Fset.Position(n.Pos())
			lines = append(lines, fmt.Sprintf("%s:%d:%d: %s", rel(pos.Filename), pos.Line, pos.Column, msg))
		})
	}
	return lines, dirs, len(us)
}

// TestTree is the lint gate: no package of the module reads the wall clock
// or draws from the global math/rand source where simulated time and seeded
// RNGs are the only legal ones. Each failure line reads like a `go vet`
// finding.
func TestTree(t *testing.T) {
	root := filepath.Join("..", "..")
	lines, dirs, units := findings(t, root, "clusterfds")
	for _, l := range lines {
		t.Error(l)
	}
	// A loader that silently loads nothing must not pass: every directory
	// the go command would build from was visited.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		goFiles, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if r, _ := filepath.Rel(root, path); len(goFiles) > 0 && !dirs[r] {
			t.Errorf("directory %s holds Go files but was not linted", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("walltime over %d units from %d directories: %d findings", units, len(dirs), len(lines))
}

// TestTreeReportsPlantedFinding is the negative control: the same driver
// over a fixture tree reports exactly the one planted time.Now in the
// deterministic sim package, and nothing for the wall-clock read of a
// command. The sim directory's external test compiles only against the
// in-package test variant, and only if the scenario package it imports is
// checked against that variant too.
func TestTreeReportsPlantedFinding(t *testing.T) {
	lines, _, units := findings(t, filepath.Join("testdata", "src", "clusterfds"), "clusterfds")
	const want = "internal/sim/sim.go:15:29: time.Now in deterministic package clusterfds/internal/sim: "
	if len(lines) != 1 || !strings.HasPrefix(lines[0], want) {
		t.Errorf("findings = %q\nwant one, starting %q", lines, want)
	}
	if units != 4 {
		t.Errorf("units = %d, want 4 (sim with in-package tests, its external test package, scenario, cmd/fdsim)", units)
	}
}
