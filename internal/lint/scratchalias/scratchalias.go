// Package scratchalias guards the two recycled-memory contracts the PR-4
// allocation work introduced:
//
//  1. wire.DecodeInto parses into a reusable DecodeScratch: the returned
//     message and every slice it carries are overwritten by the next
//     DecodeInto on the same scratch. A decode result may be read, handed
//     to Deliver, or copied — but storing it (or memory reachable from it)
//     into a field, package variable, map/slice element, channel, or
//     escaping closure is a latent aliasing bug that only bites when the
//     arena is reused, far from the store.
//
//  2. A value handed to (*sync.Pool).Put belongs to the pool: any use of
//     the same variable after the Put races with whoever gets the value
//     next. (The repository's own free lists are plain slices today, but
//     the gate is in place for when a pool shows up — and the fixture
//     proves it fires.)
//
// The retention analysis is shared with deliverretain (see the lint
// package's TaintEngine): taint starts at DecodeInto results instead of
// handler parameters, and follows the same aliasing, copying, and
// cleansing rules.
package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"clusterfds/internal/lint"
)

// Analyzer is the scratch/pool lifetime check.
var Analyzer = &lint.Analyzer{
	Name: "scratchalias",
	Doc: "flag retention of wire.DecodeScratch-backed decode results past " +
		"the decode, and uses of a value after it was Put back in a sync.Pool",
	Run: run,
}

func run(pass *lint.Pass) error {
	lint.CheckRetention(pass,
		nil,
		func(call *ast.CallExpr) bool {
			fn := lint.PkgFunc(pass.TypesInfo, call)
			return fn != nil && fn.Name() == "DecodeInto" &&
				fn.Pkg() != nil && lint.WirePackage(fn.Pkg().Path())
		},
		"scratch-backed decode result")
	checkPoolPut(pass)
	return nil
}

// checkPoolPut flags uses of a variable after it was handed to
// (*sync.Pool).Put in the same function.
func checkPoolPut(pass *lint.Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolPutFunc(pass, fd)
		}
	}
}

func checkPoolPutFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// Collect Put sites: object -> position of the Put call's end.
	type putSite struct {
		obj types.Object
		end token.Pos
	}
	var puts []putSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lint.PkgFunc(info, call)
		if fn == nil || fn.Name() != "Put" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		if len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			puts = append(puts, putSite{obj, call.End()})
		}
		return true
	})
	if len(puts) == 0 {
		return
	}
	for _, p := range puts {
		// A rebinding assignment after the Put makes later uses fine.
		rebound := token.Pos(-1)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Pos() <= p.end {
				return true
			}
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					if o := info.Uses[id]; o == p.obj {
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
			if !ok {
				return true
			}
			if o := info.Uses[id]; o != p.obj || id.Pos() <= p.end {
				return true
			}
			if rebound != token.Pos(-1) && id.Pos() >= rebound {
				return true
			}
			// Skip the ident when it is the LHS of the rebinding itself.
			pass.Reportf(id.Pos(),
				"%s used after it was returned to a sync.Pool; the pool may already have handed it to another taker",
				p.obj.Name())
			return true
		})
	}
}
