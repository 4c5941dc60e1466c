// Package arenaescape machine-checks the arena-ownership rules of
// DESIGN.md §12: values carved from bump arenas and block free lists are
// only valid until the arena's next generation reset (the epoch flip that
// recycles `prev` into `cur`, or the free-list append that hands the block
// to the next taker). Retaining such a value anywhere that outlives the
// generation is a use-after-recycle bug that only bites when the arena
// wraps, far from the store.
//
// What counts as arena memory:
//
//   - the result of any call whose callee name starts with "carve" (the
//     bump-allocation verb: a bump arena names the method that hands out a
//     slice of its memory carve, as the fixtures under testdata do);
//   - any read through a field or variable named `arena` or `*Arena`
//     (p.arena, sh.arena), the backing stores themselves.
//
// What the analyzer allows:
//
//   - stores rooted at the arena's owner — the object at the base of the
//     source's selector chain (`p` for p.arena / p.arena.carve(...)) and
//     anything derived from it (`st := p.newState()`). Owners retain their
//     own storage by construction: the two-generation flip is exactly the
//     owner promising carved values one full generation of validity.
//   - returns of carved values: an accessor may hand carved slices to its
//     callers under a documented lifetime contract (wire's decoded lists
//     live until the scratch's next decode); the caller's side of that
//     contract is package-external and policed by the §12 tests, not by
//     this analyzer.
//   - the encode-copies-bytes-out pattern (§12 rule 5): passing carved
//     memory to a synchronous call such as Send is fine — the transport
//     encodes before returning — unless the callee's interprocedural
//     summary says it retains the argument.
//
// The interprocedural layer closes the helper-call hole: a store hidden
// behind `keep(v)` or `sink.retain(v)` is judged at the call site against
// the callee's per-input retention summary, so a PR-4-shaped bug moved one
// function away still fires.
//
// A second, flow-sensitive check guards the free lists (timerFree, txFree,
// batchFree, jobFree): after `p.fooFree = append(p.fooFree, v)` the
// block belongs to the pool, so any later use of v in the same function is
// a use-after-free race with the next taker.
package arenaescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clusterfds/internal/lint"
)

// Analyzer is the arena/free-list lifetime check.
var Analyzer = &lint.Analyzer{
	Name: "arenaescape",
	Doc: "flag retention of bump-arena / free-list memory past the " +
		"generation boundary, including leaks hidden behind package-local calls",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.DeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	sums := lint.Summarize(pass)
	for _, f := range pass.Files {
		if lint.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, sums, fd)
			checkFreeList(pass, fd)
		}
	}
	return nil
}

// arenaName reports whether name denotes an arena backing store.
func arenaName(name string) bool {
	return name == "arena" || strings.HasSuffix(name, "Arena")
}

// carveCall reports whether call invokes a carve* bump-allocation helper.
func carveCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lint.PkgFunc(info, call)
	return fn != nil && strings.HasPrefix(strings.ToLower(fn.Name()), "carve")
}

// sourceExpr reports whether x reads arena memory directly (by name).
func sourceExpr(x ast.Expr) bool {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		return arenaName(e.Name)
	case *ast.SelectorExpr:
		return arenaName(e.Sel.Name)
	}
	return false
}

// owners collects the objects that own arena memory used in fd: the chain
// root of every carve call and arena-named read (p for p.arena and
// p.arena.carve(...)), closed over derivation (`st := p.newState()` makes st
// part of p's graph, so stores through st stay inside the owner).
func owners(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	info := pass.TypesInfo
	own := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if carveCall(info, n) {
				if root := lint.ChainRoot(info, n); root != nil {
					own[root] = true
				}
			}
		case *ast.Ident:
			if arenaName(n.Name) {
				if root := lint.ChainRoot(info, n); root != nil {
					own[root] = true
				}
			}
		case *ast.SelectorExpr:
			if arenaName(n.Sel.Name) {
				if root := lint.ChainRoot(info, n.X); root != nil {
					own[root] = true
				}
			}
		}
		return true
	})
	// Close over derivation: x := <chain rooted at an owner> makes x an
	// owner too. Two passes so chained derivations converge regardless of
	// statement order.
	record := func(l, r ast.Expr) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		root := lint.ChainRoot(info, r)
		if root == nil || !own[root] {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			own[obj] = true
		}
	}
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i := range as.Lhs {
					record(as.Lhs[i], as.Rhs[i])
				}
			}
			return true
		})
	}
	return own
}

// checkFunc runs the retention engine over one function with arena sources
// seeded and owner-rooted stores admitted.
func checkFunc(pass *lint.Pass, sums *lint.Summaries, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	own := owners(pass, fd)
	reported := make(map[token.Pos]bool)
	reportf := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	eng := &lint.TaintEngine{
		Pass:     pass,
		What:     "arena-carved value",
		Lifetime: "until the arena's next generation reset",
		TaintedCall: func(call *ast.CallExpr) bool {
			return carveCall(info, call)
		},
		TaintedSource: sourceExpr,
		OnEscape: func(kind lint.EscapeKind, pos token.Pos, target ast.Expr, root types.Object) bool {
			switch kind {
			case lint.EscapeStore, lint.EscapePkgVar:
				// The owner retains its own storage by construction.
				return root == nil || !own[root]
			}
			// Channel sends, goroutines, and escaping closures detach the
			// value from the generation discipline entirely.
			return true
		},
		Report: reportf,
	}
	eng.ReturnsTaintCall = sums.ReturnsTaintFor(info)
	eng.OnCallTaint = func(call *ast.CallExpr, callee *types.Func, input int, arg ast.Expr) {
		cs := sums.Input(callee, input)
		if cs == nil {
			return // cross-package or summary-less: synchronous, retains nothing
		}
		if cs.Global {
			reportf(arg.Pos(), "arena-carved value passed to %s, which retains it beyond the call; "+
				"it is only valid until the arena's next generation reset — copy it first", callee.Name())
		}
		for j := range cs.Into {
			e := lint.InputExpr(call, callee, j)
			if e == nil {
				reportf(arg.Pos(), "arena-carved value passed to %s, which retains it; "+
					"it is only valid until the arena's next generation reset — copy it first", callee.Name())
				continue
			}
			root := lint.ChainRoot(info, e)
			if root != nil && own[root] {
				continue // stored back into the owner's graph
			}
			if lint.FrameLocal(root) {
				continue // stored into a by-value local of this frame
			}
			reportf(e.Pos(), "arena-carved value stored into %s's object graph by %s; "+
				"it is only valid until the arena's next generation reset — copy it first",
				lint.ExprString(e), callee.Name())
		}
	}
	// Returns of carved values are deliberately not flagged: an accessor
	// hands carved slices out under its documented lifetime contract.
	eng.CheckFunc(fd, nil)
}

// checkFreeList flags uses of a block after it was appended to a free list:
// in `x.fooFree = append(x.fooFree, v)` the ident v belongs to the pool
// from the append on, so later uses in the same function race with the
// next taker. A rebinding assignment to v resets the window (the
// take-from-pool pattern reuses the variable).
func checkFreeList(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	type freeSite struct {
		obj  types.Object
		list string
		end  token.Pos
	}
	var frees []freeSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhsName := ""
		switch l := ast.Unparen(as.Lhs[0]).(type) {
		case *ast.Ident:
			lhsName = l.Name
		case *ast.SelectorExpr:
			lhsName = l.Sel.Name
		}
		if !strings.HasSuffix(lhsName, "Free") {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return true
		} else if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		v, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[v]; obj != nil {
			frees = append(frees, freeSite{obj, lhsName, as.End()})
		}
		return true
	})
	for _, fs := range frees {
		// A rebinding assignment after the free makes later uses fine.
		rebound := token.Pos(-1)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Pos() <= fs.end {
				return true
			}
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					if o := info.Uses[id]; o == fs.obj {
						if rebound == token.Pos(-1) || as.Pos() < rebound {
							rebound = as.Pos()
						}
					}
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() <= fs.end {
				return true
			}
			if rebound != token.Pos(-1) && id.Pos() >= rebound {
				return true
			}
			if info.Uses[id] == fs.obj {
				pass.Reportf(id.Pos(), "use of %s after it was returned to %s; "+
					"the block belongs to the pool once appended — release it last", id.Name, fs.list)
			}
			return true
		})
	}
}
