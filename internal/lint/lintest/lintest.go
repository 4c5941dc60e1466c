// Package lintest loads and type-checks Go packages from source for the
// analyzers in internal/lint, and runs them: over fixture packages with
// expected findings (Run, Load) and over a whole source tree the way
// `go vet ./...` walks one (Tree). It is the only loader the lint suite has.
//
// Fixtures live under <analyzer>/testdata/src/<importpath>/ and annotate
// lines that must be flagged with trailing comments of the form
//
//	x = m // want `regexp`
//
// (backquoted or double-quoted Go strings; several per line allowed). A
// want comment alone on its line attaches to the line above it — for
// flagged lines too long to carry a trailing comment:
//
//	x = someVeryLongExpression(a, b, c)
//	// want `regexp`
//
// Run type-checks the fixture package, runs the analyzer, and fails the
// test on any mismatch in either direction.
package lintest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clusterfds/internal/lint"
)

// Run loads each fixture package below dir (conventionally "testdata") and
// applies the analyzer, comparing diagnostics against // want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := newLoader(filepath.Join(dir, "src"), "")
	for _, path := range pkgPaths {
		path := path
		t.Run(path, func(t *testing.T) {
			t.Helper()
			u, err := ld.load(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			diags, err := lint.Run(a, u)
			if err != nil {
				t.Fatalf("running %s on %s: %v", a.Name, path, err)
			}
			check(t, u, diags)
		})
	}
}

// Load type-checks one fixture package below dir (conventionally
// "testdata") and returns its unit, for tests that drive an analyzer — or
// an analyzer variant — through lint.Run directly instead of comparing
// against // want comments.
func Load(t *testing.T, dir, pkgPath string) *lint.Unit {
	t.Helper()
	u, err := newLoader(filepath.Join(dir, "src"), "").load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	return u
}

// Tree type-checks every package directory at or below root, where root
// holds the package whose import path is prefix, and returns the units
// `go vet ./...` checks: per directory the package together with its
// in-package test files, then the external _test package if there is one.
// Like the go command it skips testdata and directories whose names begin
// with "." or "_".
func Tree(root, prefix string) ([]*lint.Unit, error) {
	ld := newLoader(root, prefix)
	var units []*lint.Unit
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if skipped(root, dir) {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(goFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		us, err := ld.vetUnits(filepath.ToSlash(filepath.Join(prefix, rel)), dir)
		units = append(units, us...)
		return err
	})
	return units, err
}

// skipped reports whether the go command passes over dir when it walks root:
// testdata, and names beginning with "." or "_".
func skipped(root, dir string) bool {
	name := filepath.Base(dir)
	return dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_')
}

// loader type-checks packages from source. An import path at or under
// prefix resolves to the matching directory below root when that directory
// exists; every other import resolves to the standard library.
type loader struct {
	root, prefix string
	fset         *token.FileSet
	pkgs         map[string]*lint.Unit // non-test packages, by import path
	std          types.Importer        // made on first use
}

func newLoader(root, prefix string) *loader {
	return &loader{
		root:   root,
		prefix: prefix,
		fset:   token.NewFileSet(),
		pkgs:   make(map[string]*lint.Unit),
	}
}

// stdImporter returns an importer over the toolchain's export data for every
// standard-library package a file under root imports, and their
// dependencies. importer.Default would find the same files by forking
// `go list` once per package; this asks once for all of them.
func (l *loader) stdImporter() (types.Importer, error) {
	need := make(map[string]bool)
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipped(l.root, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			if _, ok := l.dir(p); !ok {
				need[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	args := []string{"list", "-export", "-deps", "-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}"}
	for p := range need {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := make(map[string]string)
	for _, line := range strings.Fields(string(out)) {
		if path, file, ok := strings.Cut(line, "="); ok {
			export[path] = file
		}
	}
	return importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data listed for %s", path)
		}
		return os.Open(file)
	}), nil
}

// dir maps an import path to its source directory below root.
func (l *loader) dir(path string) (string, bool) {
	rel, ok := strings.CutPrefix(path, l.prefix)
	if !ok || (l.prefix != "" && rel != "" && rel[0] != '/') {
		return "", false
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	st, err := os.Stat(dir)
	return dir, err == nil && st.IsDir()
}

// load returns the non-test package at path — what an import of it sees.
func (l *loader) load(path string) (*lint.Unit, error) {
	if u, ok := l.pkgs[path]; ok {
		return u, nil
	}
	dir, ok := l.dir(path)
	if !ok {
		return nil, fmt.Errorf("no source directory for %s under %s", path, l.root)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	u, err := l.check(path, dir, bp.GoFiles, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = u
	return u, nil
}

// vetUnits returns the units of the package directory dir, whose import
// path is path, as `go vet` forms them. The external test package is checked against the in-package test
// variant, not the plain package, so it sees what export_test.go declares.
func (l *loader) vetUnits(path, dir string) ([]*lint.Unit, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var under *lint.Unit
	if len(bp.TestGoFiles) == 0 {
		under, err = l.load(path)
	} else {
		under, err = l.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...), l)
	}
	if err != nil {
		return nil, err
	}
	units := []*lint.Unit{under}
	if len(bp.XTestGoFiles) > 0 {
		x, err := l.check(path+"_test", dir, bp.XTestGoFiles, importerFunc(func(p string) (*types.Package, error) {
			if p == path {
				return under.Pkg, nil
			}
			return l.Import(p)
		}))
		if err != nil {
			return nil, err
		}
		units = append(units, x)
	}
	return units, nil
}

// check parses the named files of dir and type-checks them as one package.
func (l *loader) check(path, dir string, names []string, imp types.Importer) (*lint.Unit, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := lint.NewInfo()
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Unit{Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dir(path); ok {
		u, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	if l.std == nil {
		var err error
		if l.std, err = l.stdImporter(); err != nil {
			// No go command or no export data: type-check the standard
			// library from source.
			l.std = importer.ForCompiler(l.fset, "source", nil)
		}
	}
	return l.std.Import(path)
}

// wantRe extracts the quoted patterns of a // want comment.
var wantRe = regexp.MustCompile("^//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")

var patRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func check(t *testing.T, u *lint.Unit, diags []lint.Diagnostic) {
	t.Helper()
	srcLines := make(map[string][]string)
	// wantLine resolves which source line a want comment annotates: its own
	// line for a trailing comment, the line above for a comment that is the
	// only thing on its line.
	wantLine := func(pos token.Position) int {
		lines, ok := srcLines[pos.Filename]
		if !ok {
			data, err := os.ReadFile(pos.Filename)
			if err != nil {
				t.Fatalf("reading fixture %s: %v", pos.Filename, err)
			}
			lines = strings.Split(string(data), "\n")
			srcLines[pos.Filename] = lines
		}
		if pos.Line > 1 && pos.Line-1 < len(lines) {
			line := lines[pos.Line-1]
			if pos.Column-1 <= len(line) && strings.TrimSpace(line[:pos.Column-1]) == "" {
				return pos.Line - 1
			}
		}
		return pos.Line
	}
	var wants []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				for _, q := range patRe.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: wantLine(pos), re: re, raw: pat,
					})
				}
			}
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
