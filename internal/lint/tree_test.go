package lint_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"

	"clusterfds/internal/lint"
	"clusterfds/internal/lint/arenaescape"
	"clusterfds/internal/lint/deliverretain"
	"clusterfds/internal/lint/detmap"
	"clusterfds/internal/lint/floatfold"
	"clusterfds/internal/lint/lintest"
	"clusterfds/internal/lint/rngdraw"
	"clusterfds/internal/lint/scratchalias"
	"clusterfds/internal/lint/stripshare"
	"clusterfds/internal/lint/walltime"
)

// analyzers is the full suite, in reporting order. Adding an analyzer to
// the gate is one line here.
var analyzers = []*lint.Analyzer{
	walltime.Analyzer,
	detmap.Analyzer,
	deliverretain.Analyzer,
	scratchalias.Analyzer,
	arenaescape.Analyzer,
	floatfold.Analyzer,
	stripshare.Analyzer,
	rngdraw.Analyzer,
}

// findings runs every analyzer over every unit of the tree at root and
// returns one "file:line:col: message [analyzer]" line per finding, with
// the file relative to root, plus the directories the units' files came
// from and the number of units.
func findings(t *testing.T, root, prefix string) (lines []string, dirs map[string]bool, units int) {
	t.Helper()
	us, err := lintest.Tree(root, prefix)
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
		for _, a := range analyzers {
			diags, err := lint.Run(a, u)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, u.Pkg.Path(), err)
			}
			for _, d := range diags {
				pos := u.Fset.Position(d.Pos)
				lines = append(lines, fmt.Sprintf("%s:%d:%d: %s [%s]", rel(pos.Filename), pos.Line, pos.Column, d.Message, a.Name))
			}
		}
	}
	return lines, dirs, len(us)
}

// TestTree is the lint gate: every package of the module — with its
// in-package tests, and its external test package — passes every analyzer.
// Each failure line reads like a `go vet` finding; DESIGN.md §9 says which
// invariant the named analyzer guards.
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
	t.Logf("%d analyzers over %d units from %d directories: %d findings", len(analyzers), units, len(dirs), len(lines))
}

// TestTreeReportsPlantedFinding is the negative control: the same driver
// over a fixture tree with one wall-clock read in a deterministic package
// reports exactly that, from a directory whose external test compiles only
// against the in-package test variant.
func TestTreeReportsPlantedFinding(t *testing.T) {
	lines, _, units := findings(t, filepath.Join("testdata", "src", "clusterfds"), "clusterfds")
	want := []string{"internal/sim/sim.go:15:29: time.Now in deterministic package clusterfds/internal/sim: simulated time only (use the sim kernel's clock and timers) [walltime]"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("findings = %q\nwant %q", lines, want)
	}
	if units != 2 {
		t.Errorf("units = %d, want 2 (package with in-package tests, external test package)", units)
	}
}
