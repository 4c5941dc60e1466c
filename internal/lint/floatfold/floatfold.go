// Package floatfold machine-checks the serial-fold invariant behind the
// engines' bit-identical parallelism (DESIGN.md §12): floating-point
// addition is not associative, so any float accumulation whose order is
// not pinned — inside a parallel worker region, or inside a range over a
// map — can produce run-to-run different bits. Folds must happen in the
// serial barrier, in pinned order (sorted keys, strip index order).
//
// Two unpinned contexts are policed:
//
//   - parallel worker regions: every function body reachable from a `go`
//     statement (lint.GoReachable). Accumulating into state shared beyond
//     the region — a receiver or captured variable — races the fold
//     across workers. Accumulation into region-locals (a private partial
//     handed through the merge barrier) and into indexed per-element
//     slots (e.spent[to], e.energy[r] — each element is owned by exactly
//     one worker under the strip decomposition) is the sanctioned shape.
//   - range-over-map bodies: map iteration order is deliberately random,
//     so even a single-threaded fold over map values is unpinned. Only
//     per-key indexed slots (out[k] += v) are order-independent; folds
//     into anything else — including frame-locals — must collect keys,
//     sort, and fold serially (the aggregate.Origins pattern).
//
// Accumulation hidden behind a call is caught transitively: a call inside
// either context to a function that (directly or through further calls)
// accumulates floating-point state into shared storage is flagged at the
// call site (lint.PropagateCalls) — this is how `total.Combine(s)` inside
// a range over partials fires without Combine itself being in a worker.
package floatfold

import (
	"go/ast"
	"go/token"
	"go/types"

	"clusterfds/internal/lint"
)

// Analyzer is the serial-float-fold check.
var Analyzer = &lint.Analyzer{
	Name: "floatfold",
	Doc: "flag floating-point accumulation inside parallel worker regions " +
		"and range-over-map bodies; folds must be serial in pinned order",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.DeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	reach := lint.GoReachable(pass)
	prop := lint.PropagateCalls(pass, func(fd *ast.FuncDecl) bool {
		return accumulatesShared(info, fd)
	})
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
				checkRegion(pass, fd.Body, lint.RegionLocals(info, fd.Body, fd.Type), prop)
			}
			checkMapRanges(pass, fd.Body, prop)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && reach[lit] {
					checkRegion(pass, lit.Body, lint.RegionLocals(info, lit.Body, lit.Type), prop)
				}
				return true
			})
		}
	}
	return nil
}

// floatAccum reports whether n accumulates a floating-point value and
// returns the accumulation target: x op= y, the self-form x = x + y, and
// ++/-- on a float.
func floatAccum(info *types.Info, n ast.Node) (ast.Expr, bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
			return nil, false
		}
		switch n.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if floatType(info.TypeOf(n.Lhs[0])) {
				return n.Lhs[0], true
			}
		case token.ASSIGN:
			b, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr)
			if !ok || !floatType(info.TypeOf(n.Lhs[0])) {
				return nil, false
			}
			switch b.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				l := lint.ExprString(n.Lhs[0])
				if lint.ExprString(b.X) == l || lint.ExprString(b.Y) == l {
					return n.Lhs[0], true
				}
			}
		}
	case *ast.IncDecStmt:
		if floatType(info.TypeOf(n.X)) {
			return n.X, true
		}
	}
	return nil, false
}

func floatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// hasIndex reports whether the lvalue path contains an index step — a
// per-element slot, pinned by the data decomposition rather than by
// arrival order.
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

// accumulatesShared reports whether fd's own body accumulates floats into
// a non-indexed target that is not one of its frame's locals — the base
// property PropagateCalls spreads over the call graph (Stat.Combine's
// `s.Sum += o.Sum`).
func accumulatesShared(info *types.Info, fd *ast.FuncDecl) bool {
	locals := lint.DeclaredObjects(info, fd.Body)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if lv, ok := floatAccum(info, n); ok && !hasIndex(lv) {
			if root := lint.ChainRoot(info, lv); root == nil || !locals[root] {
				found = true
			}
		}
		return true
	})
	return found
}

// checkRegion flags unpinned float folds in one worker region. Nested
// function literals are regions of their own (GoReachable closes over
// them), and map-range bodies are left to checkMapRanges so each site gets
// exactly one diagnostic.
func checkRegion(pass *lint.Pass, body *ast.BlockStmt, locals map[types.Object]bool, prop map[*types.Func]bool) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if n.X != nil {
				if t := info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.CallExpr:
			if fn := lint.PkgFunc(info, n); fn != nil && prop[fn] {
				pass.Reportf(n.Pos(), "call to %s, which accumulates floating-point state, inside a parallel worker region; fold in the serial barrier in pinned order", fn.Name())
			}
		default:
			if lv, ok := floatAccum(info, n); ok && !hasIndex(lv) {
				if root := lint.ChainRoot(info, lv); root == nil || !locals[root] {
					pass.Reportf(lv.Pos(), "floating-point accumulation into %s inside a parallel worker region; fold in the serial barrier in pinned order", lint.ExprString(lv))
				}
			}
		}
		return true
	})
}

// checkMapRanges flags unpinned float folds inside range-over-map bodies,
// wherever they appear (worker or serial code).
func checkMapRanges(pass *lint.Pass, body *ast.BlockStmt, prop map[*types.Func]bool) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || rs.X == nil {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		iterVars := make(map[types.Object]bool)
		for _, v := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := v.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					iterVars[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					iterVars[obj] = true
				}
			}
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if fn := lint.PkgFunc(info, n); fn != nil && prop[fn] {
					pass.Reportf(n.Pos(), "call to %s, which accumulates floating-point state, inside a range over a map; iteration order is unpinned — collect keys, sort, and fold serially", fn.Name())
				}
			default:
				if lv, ok := floatAccum(info, n); ok && !perKeySlot(info, lv, iterVars) {
					pass.Reportf(lv.Pos(), "floating-point accumulation into %s inside a range over a map; iteration order is unpinned — collect keys, sort, and fold serially", lint.ExprString(lv))
				}
			}
			return true
		})
		return true
	})
}

// perKeySlot reports whether lv indexes per iteration key/value — a slot
// per map entry, so the fold order cannot change any element's bits.
func perKeySlot(info *types.Info, lv ast.Expr, iterVars map[types.Object]bool) bool {
	for {
		switch e := ast.Unparen(lv).(type) {
		case *ast.IndexExpr:
			uses := false
			ast.Inspect(e.Index, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && iterVars[info.Uses[id]] {
					uses = true
				}
				return true
			})
			if uses {
				return true
			}
			lv = e.X
		case *ast.SelectorExpr:
			lv = e.X
		case *ast.StarExpr:
			lv = e.X
		default:
			return false
		}
	}
}
