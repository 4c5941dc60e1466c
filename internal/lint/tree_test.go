package lint_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"clusterfds/internal/lint"
	"clusterfds/internal/lint/arenaescape"
	"clusterfds/internal/lint/deliverretain"
	"clusterfds/internal/lint/detmap"
	"clusterfds/internal/lint/lintest"
	"clusterfds/internal/lint/rngdraw"
	"clusterfds/internal/lint/scratchalias"
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
// over a fixture tree with one planted finding per analyzer reports exactly
// those, so an analyzer unhooked from the list above fails here. The sim
// directory's external test compiles only against the in-package test
// variant.
func TestTreeReportsPlantedFinding(t *testing.T) {
	lines, _, units := findings(t, filepath.Join("testdata", "src", "clusterfds"), "clusterfds")
	want := [][2]string{
		{"internal/fds/fds.go:14:63: ", " [deliverretain]"},
		{"internal/fds/fds.go:19:2: ", " [scratchalias]"},
		{"internal/fds/fds.go:26:59: ", " [arenaescape]"},
		{"internal/sim/sim.go:19:29: ", " [walltime]"},
		{"internal/sim/sim.go:24:3: ", " [detmap]"},
		{"internal/sim/sim.go:33:9: ", " [rngdraw]"},
	}
	if len(want) != len(analyzers) {
		t.Errorf("%d planted findings for %d analyzers", len(want), len(analyzers))
	}
	ok := len(lines) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(lines[i], want[i][0]) && strings.HasSuffix(lines[i], want[i][1])
	}
	if !ok {
		t.Errorf("findings = %q\nwant, by position and analyzer, %q", lines, want)
	}
	if units != 4 {
		t.Errorf("units = %d, want 4 (fds; sim with in-package tests, its external test package; wire)", units)
	}
}
