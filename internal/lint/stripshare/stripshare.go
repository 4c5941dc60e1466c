// Package stripshare machine-checks the strip-isolation invariant behind
// the intra-replica parallelism (DESIGN.md §12): worker goroutines in
// internal/par and internal/shard may touch only their own strip's state.
// Everything cross-strip flows through the serial merge barrier, which is
// what makes the parallel engines bit-identical to the serial kernel.
//
// Neither engine spawns goroutines itself: a worker region starts at the
// drain function handed to sim.RunWindows (or at a `go` statement), and
// lint.GoReachable closes over what it calls. Inside every such region the
// analyzer flags:
//
//   - writes to shared mutables: a store whose target is rooted at the
//     receiver, a captured variable, or a package variable — state visible
//     to other workers — unless the lvalue path goes through an index
//     (e.strips[w].sends++, e.crashed[i] = true: per-strip and per-host
//     slots are owned by exactly one worker under the decomposition).
//     Region-locals and the region's own parameters (the worker's strip
//     handle) are private. Channel sends and sync/atomic calls are the
//     sanctioned communication paths and are not stores.
//
//     A method reached transitively from a worker — a heap push, a strip
//     helper — treats its receiver as caller-owned storage: the worker
//     hands the helper its own strip's object (§12: owners hand out storage
//     they own), and it is the call site, not the helper body, where the
//     cross-strip rule applies. Only a direct worker entry — the target of
//     `go e.worker(...)`, or a method value e.worker passed as the drain —
//     keeps its receiver shared: there the receiver is the whole engine,
//     run once per worker.
//
//   - cross-strip index arithmetic: indexing a strip/shard-state container
//     with a computed neighbor index (e.strips[w+1]) reaches another
//     worker's state without the merge barrier. Only containers whose
//     element type is a named strip/shard struct are held to this rule —
//     flat per-host rows like the []uint64 liveness bitsets are addressed
//     as row+bit arithmetic legitimately.
package stripshare

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clusterfds/internal/lint"
)

// Analyzer is the strip-isolation check.
var Analyzer = &lint.Analyzer{
	Name: "stripshare",
	Doc: "flag worker-goroutine writes to shared state and cross-strip " +
		"index arithmetic that bypass the merge barrier in internal/par and internal/shard",
	Run: run,
}

// stripPackage reports whether path is one of the parallel-engine packages
// the strip discipline applies to.
func stripPackage(path string) bool {
	for _, d := range []string{"par", "shard"} {
		p := "clusterfds/internal/" + d
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *lint.Pass) error {
	if !stripPackage(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	reach := lint.GoReachable(pass)
	spawned := goTargets(pass)
	for _, f := range pass.Files {
		if lint.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if reach[fd] {
				locals := lint.RegionLocals(info, fd.Body, fd.Type)
				if fd.Recv != nil && !spawned[fd] {
					// Transitively reached helper: the receiver is the
					// caller's own strip object, handed in at the call site.
					for _, field := range fd.Recv.List {
						for _, name := range field.Names {
							if obj := info.Defs[name]; obj != nil {
								locals[obj] = true
							}
						}
					}
				}
				checkRegion(pass, fd.Body, locals)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && reach[lit] {
					checkRegion(pass, lit.Body, lint.RegionLocals(info, lit.Body, lit.Type))
				}
				return true
			})
		}
	}
	return nil
}

// goTargets maps each FuncDecl that is the direct callee of a go statement,
// or is handed by name to sim.RunWindows as the drain, in a non-test file —
// the worker entry points whose receiver is the shared engine, not a
// caller-owned strip object.
func goTargets(pass *lint.Pass) map[*ast.FuncDecl]bool {
	info := pass.TypesInfo
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	out := make(map[*ast.FuncDecl]bool)
	for _, f := range pass.Files {
		if lint.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var fn *types.Func
			switch n := n.(type) {
			case *ast.GoStmt:
				fn = lint.PkgFunc(info, n.Call)
			case *ast.CallExpr:
				if d := lint.WindowDrain(info, n); d != nil {
					fn = lint.FuncValue(info, d)
				}
			}
			if fd := decls[fn]; fd != nil {
				out[fd] = true
			}
			return true
		})
	}
	return out
}

// checkRegion enforces the strip discipline over one worker region. Nested
// function literals are regions of their own.
func checkRegion(pass *lint.Pass, body *ast.BlockStmt, locals map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				checkStore(pass, l, n.Tok, locals)
			}
		case *ast.IncDecStmt:
			checkStore(pass, n.X, token.ASSIGN, locals)
		case *ast.IndexExpr:
			checkCrossStrip(pass, n)
		}
		return true
	})
}

// checkStore flags a store to shared, non-indexed state.
func checkStore(pass *lint.Pass, l ast.Expr, tok token.Token, locals map[types.Object]bool) {
	info := pass.TypesInfo
	if tok == token.DEFINE {
		return // := declares region-locals
	}
	if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if hasIndex(l) {
		return // per-strip / per-host slot, owned by this worker
	}
	root := lint.ChainRoot(info, l)
	if root != nil && locals[root] {
		return
	}
	pass.Reportf(l.Pos(), "worker writes shared state %s outside the merge barrier; workers may touch only their own strip's slots", lint.ExprString(l))
}

// hasIndex reports whether the lvalue path contains an index step.
func hasIndex(x ast.Expr) bool {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.IndexExpr:
			return true
		case *ast.SelectorExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		default:
			return false
		}
	}
}

// checkCrossStrip flags strip/shard-state containers indexed with +/-
// arithmetic — a computed neighbor index that reaches another worker's
// state without the merge barrier.
func checkCrossStrip(pass *lint.Pass, idx *ast.IndexExpr) {
	info := pass.TypesInfo
	b, ok := ast.Unparen(idx.Index).(*ast.BinaryExpr)
	if !ok || (b.Op != token.ADD && b.Op != token.SUB) {
		return
	}
	if !stripElem(info.TypeOf(idx)) {
		return
	}
	pass.Reportf(idx.Pos(), "cross-strip index arithmetic %s inside a worker region bypasses the merge barrier; workers may touch only their own strip", lint.ExprString(idx))
}

// stripElem reports whether t (possibly behind a pointer) is a named
// struct whose name marks it as per-strip/per-shard worker state.
func stripElem(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return false
	}
	name := strings.ToLower(named.Obj().Name())
	return strings.Contains(name, "strip") || strings.Contains(name, "shard")
}
