package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural layer under arenaescape. The base
// TaintEngine is intra-procedural: it follows a tainted value through one
// function body and reports stores that outlive the value's window, but a
// store hidden behind one helper call is invisible to it —
// `p.cache.keep(p.arena.carve(n))` looks like a harmless synchronous call.
// Summarize closes that hole: per-function, per-input retention summaries
// ({escapes globally, stored into another input's object graph, flows to a
// return}) computed over the package-local call graph to a fixpoint. The
// analyzer consults the summary at the call site (via the engine's
// OnCallTaint/ReturnsTaintCall hooks) and reports there, where the arena
// value actually leaks.
//
// Everything is package-local: cross-package callees have no summary and
// are treated as synchronous calls that retain nothing, which matches the
// repository's layering (arena memory never crosses a package boundary
// except as encode-at-Send bytes, DESIGN.md §12 rule 5).

// Inputs returns fn's receiver (if any) followed by its parameters — the
// index space used by InputSummary and the engine's OnCallTaint hook.
func Inputs(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// InputExpr returns the call-site expression feeding input idx of callee in
// call — the receiver expression for a method's input 0, otherwise the
// matching argument — or nil when the call shape doesn't provide one.
func InputExpr(call *ast.CallExpr, callee *types.Func, idx int) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// ChainRoot resolves the object at the base of a selector / index / slice /
// call / address chain: p for p.arena.carve(n), sh for sh.arena[a:b], and
// st for st.p.newDuty(). A method-call link attributes the result to the
// receiver chain — the repository's ownership convention (§12): owners hand
// out storage they own.
func ChainRoot(info *types.Info, x ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return nil
			}
			x = e.X
		case *ast.CallExpr:
			x = e.Fun
		default:
			return nil
		}
	}
}

// InputSummary describes what one function does with memory reachable from
// one of its inputs.
type InputSummary struct {
	// Global: the input escapes the function's frame for good — a package
	// variable, channel, goroutine, escaping closure, or a store whose
	// base the analysis cannot attribute.
	Global bool
	// Into: the input is stored into the object graph rooted at another
	// input (by input index). The caller decides whether that root is
	// legal retention (the arena owner) or a leak.
	Into map[int]bool
	// Returns: the input flows to a return value.
	Returns bool
	// GlobalPos remembers one site behind Global, for diagnostics that
	// want to point into the callee.
	GlobalPos token.Pos
}

// FuncSummary holds the per-input summaries of one function declaration.
type FuncSummary struct {
	Decl    *ast.FuncDecl
	Inputs  []*types.Var
	ByInput []*InputSummary
}

// Summaries is the package-wide summary table produced by Summarize.
type Summaries struct {
	Funcs map[*types.Func]*FuncSummary
}

// For returns the summary for fn, or nil for functions without a body in
// this package (cross-package callees, declarations-only).
func (s *Summaries) For(fn *types.Func) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.Funcs[fn]
}

// Input returns the summary of input idx of fn, or nil.
func (s *Summaries) Input(fn *types.Func, idx int) *InputSummary {
	fs := s.For(fn)
	if fs == nil || idx < 0 || idx >= len(fs.ByInput) {
		return nil
	}
	return fs.ByInput[idx]
}

// ReturnsTaintFor adapts the table to the engine's ReturnsTaintCall hook: a
// call's result is tainted when a tainted call-site expression feeds an
// input that flows to the callee's return value.
func (s *Summaries) ReturnsTaintFor(info *types.Info) func(call *ast.CallExpr, tainted func(ast.Expr) bool) bool {
	return func(call *ast.CallExpr, tainted func(ast.Expr) bool) bool {
		fn := PkgFunc(info, call)
		fs := s.For(fn)
		if fs == nil {
			return false
		}
		for i, sum := range fs.ByInput {
			if sum == nil || !sum.Returns {
				continue
			}
			if e := InputExpr(call, fn, i); e != nil && tainted(e) {
				return true
			}
		}
		return false
	}
}

// Summarize computes per-function, per-input retention summaries for every
// function declared in the package, propagated across the package-local
// call graph to a fixpoint. Seeding is bottom-up in effect: each round
// re-analyzes every function with every summary learned so far, and rounds
// repeat until no summary bit changes (the flags are monotone, so this
// terminates).
func Summarize(pass *Pass) *Summaries {
	type fnDecl struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var order []fnDecl
	sums := &Summaries{Funcs: make(map[*types.Func]*FuncSummary)}
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
			inputs := Inputs(fn)
			fs := &FuncSummary{Decl: fd, Inputs: inputs, ByInput: make([]*InputSummary, len(inputs))}
			for i, v := range inputs {
				if RetainsMemory(v.Type()) {
					fs.ByInput[i] = &InputSummary{Into: make(map[int]bool)}
				}
			}
			order = append(order, fnDecl{fn, fd})
			sums.Funcs[fn] = fs
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range order {
			fs := sums.Funcs[fd.fn]
			for i := range fs.ByInput {
				if fs.ByInput[i] == nil {
					continue
				}
				if summarizeInput(pass, sums, fs, i) {
					changed = true
				}
			}
		}
	}
	return sums
}

// summarizeInput (re)analyzes one (function, input) pair against the
// current table and reports whether its summary grew.
func summarizeInput(pass *Pass, sums *Summaries, fs *FuncSummary, idx int) bool {
	info := pass.TypesInfo
	sum := fs.ByInput[idx]
	derived := derivedLocals(info, fs.Decl, fs.Inputs)
	inputIdxOf := func(root types.Object) int {
		if root == nil {
			return -1
		}
		for j, v := range fs.Inputs {
			if root == v {
				return j
			}
		}
		if j, ok := derived[root]; ok {
			return j
		}
		return -1
	}
	changed := false
	setGlobal := func(pos token.Pos) {
		if !sum.Global {
			sum.Global = true
			sum.GlobalPos = pos
			changed = true
		}
	}
	setInto := func(j int) {
		if !sum.Into[j] {
			sum.Into[j] = true
			changed = true
		}
	}
	eng := &TaintEngine{
		Pass: pass,
		OnEscape: func(kind EscapeKind, pos token.Pos, target ast.Expr, root types.Object) bool {
			if kind == EscapeStore {
				if j := inputIdxOf(root); j >= 0 {
					setInto(j)
					return false
				}
			}
			setGlobal(pos)
			return false
		},
		OnCallTaint: func(call *ast.CallExpr, callee *types.Func, input int, arg ast.Expr) {
			cs := sums.Input(callee, input)
			if cs == nil {
				return // cross-package or body-less: synchronous, retains nothing
			}
			if cs.Global {
				setGlobal(arg.Pos())
			}
			for j := range cs.Into {
				e := InputExpr(call, callee, j)
				if e == nil {
					setGlobal(arg.Pos())
					continue
				}
				root := ChainRoot(info, e)
				if jj := inputIdxOf(root); jj >= 0 {
					setInto(jj)
					continue
				}
				if FrameLocal(root) {
					continue // stored into a frame-local object: dies here
				}
				setGlobal(e.Pos())
			}
		},
		ReturnsTaintCall: sums.ReturnsTaintFor(info),
	}
	if eng.CheckFunc(fs.Decl, []*types.Var{fs.Inputs[idx]}) && !sum.Returns {
		sum.Returns = true
		changed = true
	}
	return changed
}

// FrameLocal reports whether obj is a non-pointer local variable — a
// by-value object on the current frame, so storing into its fields keeps
// the value function-local.
func FrameLocal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return false
	}
	switch v.Type().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return false
	}
	return true
}

// derivedLocals maps locals obtained from an input's object graph back to
// that input's index: after `st := p.newState()` every store through st is
// a store into p's graph, and after `d := st.p.newDuty()` a store through d
// lands in the graph of whatever input st came from. Two passes make
// chained derivations converge regardless of statement order.
func derivedLocals(info *types.Info, decl *ast.FuncDecl, inputs []*types.Var) map[types.Object]int {
	out := make(map[types.Object]int)
	idxOf := func(root types.Object) int {
		if root == nil {
			return -1
		}
		for j, v := range inputs {
			if root == v {
				return j
			}
		}
		if j, ok := out[root]; ok {
			return j
		}
		return -1
	}
	record := func(l, r ast.Expr) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if j := idxOf(ChainRoot(info, r)); j >= 0 {
			out[obj] = j
		}
	}
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.DeclStmt:
				if gd, ok := n.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
							for i := range vs.Names {
								record(vs.Names[i], vs.Values[i])
							}
						}
					}
				}
			}
			return true
		})
	}
	return out
}
