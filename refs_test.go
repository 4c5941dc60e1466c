package clusterfds_test

import (
	"encoding/json"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"clusterfds/internal/lint"
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

// goFiles returns the module's Go files, test files included, outside
// testdata and hidden directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
	// docCommand is a command named like the repo's simulation and daemon
	// commands, fds*, on a command line in a doc, with the rest of that line
	// up to a line end, backtick, pipe, ;, & or #.
	docCommand = regexp.MustCompile("(?m)(?:^|[\\s`/(])(fds[a-z]+)\\b([^\n`|;&#]*)")
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
// and every `make X` they mention is a Makefile target. A name ending in *,
// or inside a -run or -test.run pattern, matches as a prefix. A record's
// fenced code blocks are recorded output and are not read, and any doc marks
// a name as history, no longer defined, by striking it through (~~...~~).
// CHANGES.md is a history throughout and is not read.
func TestDocsNameExistingTests(t *testing.T) {
	var funcs []string
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readFile(t, path), -1) {
				funcs = append(funcs, m[1])
			}
		}
	}
	var targets []string
	for _, m := range makeTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1) {
		targets = append(targets, m[1])
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
		for _, m := range docMakeTarget.FindAllStringSubmatch(text, -1) {
			if !slices.Contains(targets, m[1]) {
				t.Errorf("%s names `make %s`, which is not a Makefile target", doc.name, m[1])
			}
		}
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
}

// TestDocsNameExistingFlags guards README.md, DESIGN.md, EXPERIMENTS.md,
// ROADMAP.md and the verify skill against removed commands and renamed or
// removed flags: every fds* command on a command line in them is a directory
// of cmd/, and every -flag that follows it (a trailing backslash continues
// the line) is defined by that command. A name struck through (~~...~~) is
// history and is not read. ROADMAP.md's flags are left out: it names flags
// that are still only planned.
func TestDocsNameExistingFlags(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string][]string{}
	for _, dir := range dirs {
		cmd := dir.Name()
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
	for _, doc := range []struct {
		name  string
		flags bool
	}{
		{"README.md", true}, {"DESIGN.md", true}, {"EXPERIMENTS.md", true},
		{"ROADMAP.md", false}, {".claude/skills/verify/SKILL.md", true},
	} {
		text := struck.ReplaceAllString(strings.ReplaceAll(readFile(t, doc.name), "\\\n", " "), "")
		for _, m := range docCommand.FindAllStringSubmatch(text, -1) {
			flags, ok := defined[m[1]]
			if !ok {
				t.Errorf("%s names %s, which has no cmd/%s", doc.name, m[1], m[1])
				continue
			}
			if !doc.flags {
				continue
			}
			for _, f := range docFlag.FindAllStringSubmatch(m[2], -1) {
				if !slices.Contains(flags, f[1]) {
					t.Errorf("%s names %s -%s, which cmd/%s does not define", doc.name, m[1], f[1], m[1])
				}
			}
		}
	}
}

var (
	// docPath is a code span that starts with internal/, cmd/ or bench/. Its
	// path runs to the first space not after a comma: an alternation may
	// break across lines.
	docPath = regexp.MustCompile("`((?:internal|cmd|bench)/[^`]*)`")
	// commaSpace is a comma and the line break or spaces after it.
	commaSpace = regexp.MustCompile(`,\s+`)
	// pathAlternation is a {a,b} alternation in such a path.
	pathAlternation = regexp.MustCompile(`\{([^{}]*)\}`)
	// lineSuffix is a :line after a file name.
	lineSuffix = regexp.MustCompile(`:\d+$`)
)

// expandPath returns the paths a doc path names: internal/{a,b} is
// internal/a and internal/b.
func expandPath(p string) []string {
	m := pathAlternation.FindStringSubmatchIndex(p)
	if m == nil {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[m[2]:m[3]], ",") {
		out = append(out, expandPath(p[:m[0]]+alt+p[m[1]:])...)
	}
	return out
}

// pathExists reports whether a doc path names a file or directory of the
// repository. A placeholder element (<name>, *) ends the path, a :line after
// a file is dropped, and a path whose last element is pkg.Ident names the
// package directory pkg.
func pathExists(p string) bool {
	if i := strings.IndexAny(p, "<*"); i >= 0 {
		p = p[:i]
	}
	p = lineSuffix.ReplaceAllString(p, "")
	if _, err := os.Stat(p); err == nil {
		return true
	}
	dir, last := filepath.Split(p)
	if i := strings.Index(last, "."); i > 0 {
		fi, err := os.Stat(dir + last[:i])
		return err == nil && fi.IsDir()
	}
	return false
}

// TestDocsNameExistingPaths guards README.md, DESIGN.md, EXPERIMENTS.md,
// ROADMAP.md and the verify skill against moved or deleted files: every
// backticked path under internal/, cmd/ or bench/ they name exists. Fenced
// blocks are recorded output or commands and are not read, and a path struck
// through (~~...~~) is history.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"} {
		text := struck.ReplaceAllString(fence.ReplaceAllString(readFile(t, doc), ""), "")
		for _, m := range docPath.FindAllStringSubmatch(text, -1) {
			path := strings.Fields(commaSpace.ReplaceAllString(m[1], ","))[0]
			for _, p := range expandPath(path) {
				if !pathExists(p) {
					t.Errorf("%s names `%s`, which is not in the repository", doc, p)
				}
			}
		}
	}
}

var (
	// sectionRef is a quoted EXPERIMENTS.md section title, with or without a
	// § before the quote.
	sectionRef = regexp.MustCompile(`EXPERIMENTS\.md\s+(?:§\s*)?"([^"]+)"`)
	// lineBreak is a line break with the next line's indentation and comment
	// marker (// or #), so that a reference wrapped across lines reads as one.
	lineBreak = regexp.MustCompile(`\n[ \t]*(?:(?://|#+)[ \t]*)?`)
	// sectionHeading is a section title of EXPERIMENTS.md.
	sectionHeading = regexp.MustCompile(`(?m)^## (.+)$`)
	// designRef is a DESIGN.md section cited by number (DESIGN.md §N or
	// DESIGN §N) or by its quoted title after DESIGN.md, with or without a §
	// before the quote.
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\s*(\d+)|DESIGN\.md\s+§?"([^"]+)"`)
	// designHeading is a numbered section of DESIGN.md.
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. (.+)$`)
)

// TestDocsNameExistingSections guards the places that send a reader to a
// section of EXPERIMENTS.md or DESIGN.md — the Go source, the Makefile,
// README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and the verify skill —
// against a section renamed, renumbered or cut: a quoted title is a
// case-insensitive substring of some `## ` heading of the doc it names, and
// DESIGN.md §N names a `## N.` heading. A reference struck through
// (~~...~~) is history, and CHANGES.md is not read.
func TestDocsNameExistingSections(t *testing.T) {
	var headings, designTitles, designNumbers []string
	for _, m := range sectionHeading.FindAllStringSubmatch(readFile(t, "EXPERIMENTS.md"), -1) {
		headings = append(headings, strings.ToLower(m[1]))
	}
	for _, m := range designHeading.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		designNumbers = append(designNumbers, m[1])
		designTitles = append(designTitles, strings.ToLower(m[2]))
	}
	contains := func(titles []string, title string) bool {
		return slices.ContainsFunc(titles, func(h string) bool { return strings.Contains(h, strings.ToLower(title)) })
	}
	docs := append(goFiles(t), "Makefile", "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md")
	for _, doc := range docs {
		text := lineBreak.ReplaceAllString(struck.ReplaceAllString(readFile(t, doc), ""), " ")
		for _, m := range sectionRef.FindAllStringSubmatch(text, -1) {
			if !contains(headings, m[1]) {
				t.Errorf("%s names EXPERIMENTS.md section %q, which no heading contains", doc, m[1])
			}
		}
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			switch {
			case m[1] != "" && !slices.Contains(designNumbers, m[1]):
				t.Errorf("%s names DESIGN.md §%s, which is not a `## %s.` heading", doc, m[1], m[1])
			case m[2] != "" && !contains(designTitles, m[2]):
				t.Errorf("%s names DESIGN.md section %q, which no heading contains", doc, m[2])
			}
		}
	}
}

var (
	// codeSpan is one backticked span of a doc.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// goRef is a dotted Go name in a code span: pkg.Name, pkg.Type.Member or
	// Type.Member.
	goRef = regexp.MustCompile(`\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// lowerCamel is a code span that is one bare lowerCamel name.
	lowerCamel = regexp.MustCompile("`([a-z][a-z0-9]*[A-Z][A-Za-z0-9]*)`")
	// runtimeFrames are lowerCamel names of the Go runtime that profiles
	// print, not names of this tree.
	runtimeFrames = []string{"asyncPreempt", "gcBgMarkWorker"}
)

// benchMetrics returns the metric names BENCHMARK.json declares.
func benchMetrics(t *testing.T) []string {
	t.Helper()
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readFile(t, "BENCHMARK.json")), &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range slices.Concat(decl.EndToEnd, decl.PerLayer) {
		names = append(names, m.Name)
	}
	return names
}

// isMetric reports whether a span's text names declared metrics: a metric
// name, or a pattern of them where * stands for any run of characters.
func isMetric(metrics []string, text string) bool {
	pattern := regexp.MustCompile(`^` + strings.ReplaceAll(regexp.QuoteMeta(text), `\*`, `.*`) + `$`)
	return slices.ContainsFunc(metrics, pattern.MatchString)
}

// TestDocsNameExistingIdentifiers guards README.md, DESIGN.md, the two
// records (EXPERIMENTS.md and ROADMAP.md) and the verify skill against
// renamed or deleted Go names: every backticked pkg.Name whose pkg is an
// in-tree package's name is declared in that package, its tests or its
// external test package, or is a method or field of one of its types;
// every pkg.Type.Member is a method or field of
// that type (promoted through embedded fields and aliases included); and
// every Type.Member whose exported Type is an in-tree type is a method or
// field of some type of that name. In README.md, DESIGN.md and
// EXPERIMENTS.md a span that is one bare lowerCamel name (`jobFree`) is also
// defined somewhere in the tree, as any identifier: a type, function, field,
// method, variable or constant. A name after / or . in a span is part of a
// path or an expression, one before - is a protocol phase (fds.R-3), and
// neither is read; a span that names metrics BENCHMARK.json declares
// (`radio.tx.*`) is not read; a record's fenced blocks are recorded output
// and are not read; and a name struck through (~~...~~) is history.
func TestDocsNameExistingIdentifiers(t *testing.T) {
	units, err := lint.Tree(".", "clusterfds")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string][]*types.Package{} // by package name
	for _, u := range units {
		if name := strings.TrimSuffix(u.Pkg.Name(), "_test"); name != "main" {
			pkgs[name] = append(pkgs[name], u.Pkg)
		}
	}
	hasMember := func(obj types.Object, member string) bool {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return false
		}
		found, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), member)
		return found != nil
	}
	// resolves reports whether one of ps declares name as a type with member,
	// or, with member empty, declares name or has a type with a method or
	// field called name.
	resolves := func(ps []*types.Package, name, member string) bool {
		return slices.ContainsFunc(ps, func(p *types.Package) bool {
			if obj := p.Scope().Lookup(name); obj != nil {
				return member == "" || hasMember(obj, member)
			}
			return member == "" && slices.ContainsFunc(p.Scope().Names(), func(n string) bool {
				return hasMember(p.Scope().Lookup(n), name)
			})
		})
	}
	var all []*types.Package
	for _, ps := range pkgs {
		all = append(all, ps...)
	}
	defined := map[string]bool{}
	for _, u := range units {
		for id := range u.Info.Defs {
			defined[id.Name] = true
		}
	}
	metrics := benchMetrics(t)
	for _, doc := range []struct {
		name          string
		record, camel bool
	}{
		{"README.md", false, true}, {"DESIGN.md", false, true}, {"EXPERIMENTS.md", true, true},
		{"ROADMAP.md", true, false}, {".claude/skills/verify/SKILL.md", false, false},
	} {
		text := readFile(t, doc.name)
		if doc.record {
			text = fence.ReplaceAllString(text, "")
		}
		text = struck.ReplaceAllString(text, "")
		if doc.camel {
			for _, m := range lowerCamel.FindAllStringSubmatch(text, -1) {
				if !defined[m[1]] && !slices.Contains(runtimeFrames, m[1]) {
					t.Errorf("%s names `%s`, which nothing in the tree defines", doc.name, m[1])
				}
			}
		}
		for _, span := range codeSpan.FindAllString(text, -1) {
			if isMetric(metrics, strings.Trim(span, "`")) {
				continue
			}
			for _, m := range goRef.FindAllStringSubmatchIndex(span, -1) {
				if c := span[m[0]-1]; c == '/' || c == '.' || m[1] < len(span) && span[m[1]] == '-' {
					continue
				}
				ref := span[m[0]:m[1]]
				first, second, third := span[m[2]:m[3]], span[m[4]:m[5]], ""
				if m[6] >= 0 {
					third = span[m[6]:m[7]]
				}
				switch {
				case pkgs[first] != nil:
					if !resolves(pkgs[first], second, third) {
						t.Errorf("%s names `%s`, which package %s does not declare or has no such member", doc.name, ref, first)
					}
				case third == "" && token.IsExported(first) && slices.ContainsFunc(all, func(p *types.Package) bool { return p.Scope().Lookup(first) != nil }):
					if !resolves(all, first, second) {
						t.Errorf("%s names `%s`, which no in-tree type %s has", doc.name, ref, first)
					}
				}
			}
		}
	}
}
