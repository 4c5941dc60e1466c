package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CheckRetention is the package-level driver shared by deliverretain and
// scratchalias. It collects every function declaration, seeds taint (from
// handler parameters and/or taint-producing calls), propagates taint
// through same-package calls and returns to a fixpoint, and then runs one
// reporting pass.
//
// seeds maps a function to its initially-tainted parameters. taintedCall,
// if non-nil, marks calls whose results are tainted wherever they appear
// (and forces every function to be analyzed, since any of them may contain
// such a call).
func CheckRetention(pass *Pass, seeds func(fn *types.Func, decl *ast.FuncDecl) []*types.Var,
	taintedCall func(*ast.CallExpr) bool, what string) {

	// Collect declarations in file order so the fixpoint is deterministic.
	type fnDecl struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var order []fnDecl
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			order = append(order, fnDecl{fn, fd})
			decls[fn] = fd
		}
	}

	tainted := make(map[*types.Func]map[*types.Var]bool)
	addTaint := func(fn *types.Func, v *types.Var) bool {
		m := tainted[fn]
		if m == nil {
			m = make(map[*types.Var]bool)
			tainted[fn] = m
		}
		if m[v] {
			return false
		}
		m[v] = true
		return true
	}
	if seeds != nil {
		for _, fd := range order {
			for _, v := range seeds(fd.fn, fd.decl) {
				addTaint(fd.fn, v)
			}
		}
	}

	returns := make(map[*types.Func]bool)
	seedVars := func(fn *types.Func, decl *ast.FuncDecl) []*types.Var {
		// Deterministic order: signature order.
		var out []*types.Var
		sig := fn.Type().(*types.Signature)
		if r := sig.Recv(); r != nil && tainted[fn][r] {
			out = append(out, r)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if p := sig.Params().At(i); tainted[fn][p] {
				out = append(out, p)
			}
		}
		return out
	}
	analyze := func(fd fnDecl, report func(pos token.Pos, format string, args ...any)) bool {
		eng := &TaintEngine{
			Pass:        pass,
			What:        what,
			TaintedCall: taintedCall,
			ReturnsTaint: func(f *types.Func) bool {
				return returns[f]
			},
			ReturnsTaintCall: messageMethodTaint(pass.TypesInfo),
			Report:           report,
		}
		var changed bool
		eng.OnArgTaint = func(callee *types.Func, param *types.Var, arg ast.Expr) {
			if _, known := decls[callee]; !known {
				return
			}
			if addTaint(callee, param) {
				changed = true
			}
		}
		rt := eng.CheckFunc(fd.decl, seedVars(fd.fn, fd.decl))
		if rt && !returns[fd.fn] {
			returns[fd.fn] = true
			changed = true
		}
		return changed
	}

	discard := func(token.Pos, string, ...any) {}
	relevant := func(fd fnDecl) bool {
		return taintedCall != nil || len(tainted[fd.fn]) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range order {
			if !relevant(fd) {
				continue
			}
			if analyze(fd, discard) {
				changed = true
			}
		}
	}
	for _, fd := range order {
		if !relevant(fd) {
			continue
		}
		analyze(fd, func(pos token.Pos, format string, args ...any) {
			pass.Reportf(pos, format, args...)
		})
	}
}

// messageMethodTaint is the rule for the wire package's accessors, whose
// bodies a caller's package cannot see: an exported method of a wire message
// that returns memory hands out memory the message owns — its scratch's, or
// the datagram's (wire.Digest.HeardIDs) — so on a tainted receiver the result
// is tainted exactly as a field read would be. (The one unexported method,
// walk, is each message's layout; only the codec calls it, from inside wire.)
func messageMethodTaint(info *types.Info) func(*ast.CallExpr, func(ast.Expr) bool) bool {
	return func(call *ast.CallExpr, tainted func(ast.Expr) bool) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		fn := PkgFunc(info, call)
		if !ok || fn == nil || !fn.Exported() {
			return false
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || !WireMessageType(sig.Recv().Type()) || !tainted(sel.X) {
			return false
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if RetainsMemory(sig.Results().At(i).Type()) {
				return true
			}
		}
		return false
	}
}
