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
	// fence is a fenced code block; in a record it is recorded output.
	fence = regexp.MustCompile("(?ms)^```.*?^```")
	// struck is strikethrough, the mark that what it names is history.
	struck = regexp.MustCompile(`(?s)~~.+?~~`)
	// runPattern is a -run or -test.run pattern, whose names are regex
	// prefixes.
	runPattern = regexp.MustCompile("(?:^|[\\s`(])-(?:test\\.)?run[= ]+('[^']*'|\"[^\"]*\"|[^\\s`]+)")
	// docCommand is one of the repo's commands on a command line in a doc,
	// with the rest of that line up to a line end, backtick, pipe, ;, & or #.
	docCommand = regexp.MustCompile("(?m)(?:^|[\\s`/(])(fdsim|fdsfigs|fdstrace|fdsd)\\b([^\n`|;&#]*)")
	// docFlag is a -flag or --flag on such a line.
	docFlag = regexp.MustCompile(`(?:^|\s)--?([a-z][a-z0-9-]*)`)
	// flagDef is a flag definition in a command's source.
	flagDef = regexp.MustCompile(`flag\.\w+\((?:&[\w.]+,\s*)?"([\w-]+)"`)
	// docMakeTarget is `make X`, in backticks or at the start of a line of a
	// code block.
	docMakeTarget = regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
	// makeTarget is a rule's target in the Makefile.
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsNameExistingTests guards README.md, DESIGN.md and the two records,
// EXPERIMENTS.md and ROADMAP.md, against renames: every Test*, Benchmark* and
// Fuzz* name they mention is a function in some _test.go file of the module,
// and every `make X` in README.md is a Makefile target. A name ending in *,
// or inside a -run or -test.run pattern, matches as a prefix. A record's
// fenced code blocks are recorded output and are not read, and any doc marks
// a name as history, no longer defined, by striking it through (~~...~~).
// CHANGES.md is a history throughout and is not read.
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
	for _, doc := range []struct {
		name   string
		record bool
	}{{"README.md", false}, {"DESIGN.md", false}, {"EXPERIMENTS.md", true}, {"ROADMAP.md", true}} {
		text := readFile(t, doc.name)
		if doc.record {
			text = fence.ReplaceAllString(text, "")
		}
		text = struck.ReplaceAllString(text, "")
		var names []string
		for _, m := range runPattern.FindAllStringSubmatch(text, -1) {
			for _, name := range docTestName.FindAllString(m[1], -1) {
				names = append(names, strings.TrimSuffix(name, "*")+"*")
			}
		}
		text = runPattern.ReplaceAllString(text, "")
		names = append(names, docTestName.FindAllString(text, -1)...)
		slices.Sort(names)
		for _, name := range slices.Compact(names) {
			if !exists(name) {
				t.Errorf("%s names %s, which no _test.go file defines", doc.name, name)
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

// TestDocsNameExistingFlags guards README.md, DESIGN.md and EXPERIMENTS.md
// against renamed or removed flags: every -flag that follows fdsim, fdsfigs,
// fdstrace or fdsd on a command line in them (a trailing backslash continues
// the line) is defined by that command. A name struck through (~~...~~) is
// history and is not read. ROADMAP.md is left out: it names flags that are
// still only planned.
func TestDocsNameExistingFlags(t *testing.T) {
	defined := map[string][]string{}
	for _, cmd := range []string{"fdsim", "fdsfigs", "fdstrace", "fdsd"} {
		files, err := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			for _, m := range flagDef.FindAllStringSubmatch(readFile(t, f), -1) {
				defined[cmd] = append(defined[cmd], m[1])
			}
		}
		if len(defined[cmd]) == 0 {
			t.Fatalf("cmd/%s: no flag definitions found", cmd)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text := struck.ReplaceAllString(strings.ReplaceAll(readFile(t, doc), "\\\n", " "), "")
		for _, m := range docCommand.FindAllStringSubmatch(text, -1) {
			for _, f := range docFlag.FindAllStringSubmatch(m[2], -1) {
				if !slices.Contains(defined[m[1]], f[1]) {
					t.Errorf("%s names %s -%s, which cmd/%s does not define", doc, m[1], f[1], m[1])
				}
			}
		}
	}
}
