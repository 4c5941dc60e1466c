package clusterfds_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// readFile returns a repository file's contents, failing the test if it
// cannot be read.
func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ciMakeStep is one CI step that runs a make target.
var ciMakeStep = regexp.MustCompile(`(?m)^\s*run: make ([a-z][a-z0-9-]*)\s*$`)

// TestCIRunsMakeCheck keeps .github/workflows/ci.yml and `make check` in
// step: every prerequisite of the Makefile's check target is one CI step
// running `make <target>`, and every such step is a check prerequisite. A
// gate added to one side only, or run twice, fails here.
func TestCIRunsMakeCheck(t *testing.T) {
	var check []string
	for _, line := range strings.Split(readFile(t, "Makefile"), "\n") {
		if rest, ok := strings.CutPrefix(line, "check:"); ok {
			check = strings.Fields(rest)
		}
	}
	if len(check) == 0 {
		t.Fatal("Makefile: no check target with prerequisites")
	}
	var ci []string
	for _, m := range ciMakeStep.FindAllStringSubmatch(readFile(t, ".github/workflows/ci.yml"), -1) {
		ci = append(ci, m[1])
	}
	count := func(list []string, target string) int {
		n := 0
		for _, x := range list {
			if x == target {
				n++
			}
		}
		return n
	}
	targets := slices.Concat(check, ci)
	slices.Sort(targets)
	for _, target := range slices.Compact(targets) {
		if c, s := count(check, target), count(ci, target); c != 1 || s != 1 {
			t.Errorf("target %q: %d times in `make check`, %d CI steps; want exactly one of each", target, c, s)
		}
	}
}

var (
	// testFunc is a top-level test, benchmark or fuzz target in a _test.go file.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// docTestName is such a name in prose; a trailing * makes it a prefix.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// docMakeTarget is `make X`, in backticks or at the start of a line of a
	// code block.
	docMakeTarget = regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
	// makeTarget is a rule's target in the Makefile.
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsNameExistingTests guards README.md and DESIGN.md against renames:
// every Test*, Benchmark* and Fuzz* name they mention is a function in some
// _test.go file of the module (a name ending in * matches as a prefix), and
// every `make X` in README.md is a Makefile target.
func TestDocsNameExistingTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readFile(t, path), -1) {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			return slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, prefix) })
		}
		return slices.Contains(funcs, name)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		names := docTestName.FindAllString(readFile(t, doc), -1)
		slices.Sort(names)
		for _, name := range slices.Compact(names) {
			if !exists(name) {
				t.Errorf("%s names %s, which no _test.go file defines", doc, name)
			}
		}
	}

	var targets []string
	for _, m := range makeTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1) {
		targets = append(targets, m[1])
	}
	for _, m := range docMakeTarget.FindAllStringSubmatch(readFile(t, "README.md"), -1) {
		if !slices.Contains(targets, m[1]) {
			t.Errorf("README.md names `make %s`, which is not a Makefile target", m[1])
		}
	}
}
