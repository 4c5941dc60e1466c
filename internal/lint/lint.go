// Package lint type-checks every package of the module from source, the way
// `go vet ./...` walks it, on the standard library alone (go/ast, go/parser,
// go/types), because this repository builds hermetically with no module
// downloads.
//
// TestTree in this package runs the walltime rule over what Tree loads: no
// wall clock and no global math/rand draw in a deterministic simulator
// package. `go test ./...` is therefore the lint gate. The root package's
// doc checks resolve the Go names the docs cite against the same units.
package lint

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
	"strconv"
	"strings"
)

// Unit is one type-checked package: the parsed files plus the definitions
// and uses the type checker resolved.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Tree type-checks every package directory at or below root, where root
// holds the package whose import path is prefix, and returns the units
// `go vet ./...` checks: per directory the package together with its
// in-package test files, then the external _test package if there is one.
// Like the go command it skips testdata and directories whose names begin
// with "." or "_".
func Tree(root, prefix string) ([]*Unit, error) {
	ld := &loader{root: root, prefix: prefix, fset: token.NewFileSet(), pkgs: make(map[string]*Unit)}
	var units []*Unit
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
	pkgs         map[string]*Unit // non-test packages, by import path
	std          types.Importer   // made on first use
	// plain, when set, makes this the loader of under's external test
	// package: an in-module package that imports under, directly or not,
	// is checked again here against under's test variant, as the go command
	// rebuilds it; every other import is plain's.
	plain *loader
	under string
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
func (l *loader) load(path string) (*Unit, error) {
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
// path is path, as `go vet` forms them. The external test package is checked
// against the in-package test variant, not the plain package, so it sees
// what export_test.go declares.
func (l *loader) vetUnits(path, dir string) ([]*Unit, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var under *Unit
	if len(bp.TestGoFiles) == 0 {
		under, err = l.load(path)
	} else {
		under, err = l.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...), l)
	}
	if err != nil {
		return nil, err
	}
	units := []*Unit{under}
	if len(bp.XTestGoFiles) > 0 {
		xl := &loader{root: l.root, prefix: l.prefix, fset: l.fset, pkgs: map[string]*Unit{path: under}, plain: l, under: path}
		x, err := l.check(path+"_test", dir, bp.XTestGoFiles, xl)
		if err != nil {
			return nil, err
		}
		units = append(units, x)
	}
	return units, nil
}

// check parses the named files of dir and type-checks them as one package.
func (l *loader) check(path, dir string, names []string, imp types.Importer) (*Unit, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Unit{Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// reaches reports whether pkg imports the in-module package path, directly
// or through other in-module packages.
func (l *loader) reaches(pkg *types.Package, path string) bool {
	for _, im := range pkg.Imports() {
		if _, ok := l.dir(im.Path()); ok && (im.Path() == path || l.reaches(im, path)) {
			return true
		}
	}
	return false
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, seen := l.pkgs[path]; !seen && l.plain != nil {
		if p, err := l.plain.Import(path); err != nil || !l.plain.reaches(p, l.under) {
			return p, err
		}
	}
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
