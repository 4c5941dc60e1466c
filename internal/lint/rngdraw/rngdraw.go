// Package rngdraw machine-checks the sender-side randomness invariant
// (DESIGN.md §12): every random draw in the deterministic packages must
// come from the consuming host's private sim.Stream, in an order pinned by
// the simulation itself. It polices draws conditioned on receiver state: a
// guard like `if e.crashed[m]` (m another host) in front of a draw from
// host i's stream makes host i's draw count depend on what a *different*
// host's state looks like under the current decomposition — the classic
// source of serial vs. sharded divergence. Guards on the drawing host's own
// state (`if e.crashed[i]` before `e.rng[i]`) are the sanctioned shape, as
// are geometry comparisons and identity tests, which are functions of the
// deterministic field, not of execution order. (The other way a draw's
// order comes loose, a draw inside a range over a map, is detmap's: the
// draw is a call it cannot prove order-insensitive.)
//
// A draw is a call to one of the math/rand-style methods (Uint64, Intn,
// Float64, ...) on a sim.Stream or *math/rand.Rand receiver. The drawing
// host — the draw's subject — is the innermost index in the receiver
// chain (`i` for e.rng[i].Int63n(...), `idx` for rng := e.rands[idx]).
// Receiver-state guards are recognized as indexing a bool-element
// container with anything other than the subject. Draws with no subject
// (a bare *rand.Rand parameter) are not checked.
package rngdraw

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clusterfds/internal/lint"
)

// Analyzer is the sender-side randomness check.
var Analyzer = &lint.Analyzer{
	Name: "rngdraw",
	Doc: "flag random draws conditioned on receiver state; randomness must " +
		"be drawn sender-side from per-host streams",
	Run: run,
}

// drawMethods are the draw verbs of math/rand.Rand and sim.Stream.
var drawMethods = map[string]bool{
	"Uint32": true, "Uint64": true, "Int63": true, "Int63n": true,
	"Int31": true, "Int31n": true, "Intn": true, "Int": true,
	"Float64": true, "Float32": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true,
}

func run(pass *lint.Pass) error {
	if !lint.DeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if lint.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{
				pass:      pass,
				info:      pass.TypesInfo,
				subjectOf: subjects(pass.TypesInfo, fd.Body),
			}
			w.block(fd.Body, ctx{})
		}
	}
	return nil
}

// ctx is what governs the statement being walked: the conditions of
// enclosing (and preceding early-exit) if statements.
type ctx []ast.Expr

// with returns cx extended by one governing condition, copying so sibling
// branches don't see each other's conditions.
func (cx ctx) with(cond ast.Expr) ctx {
	return append(cx[:len(cx):len(cx)], cond)
}

type walker struct {
	pass      *lint.Pass
	info      *types.Info
	subjectOf map[types.Object]string
}

// block walks a statement list: each early-exit if (a body ending in
// return/continue/break and no else) adds its condition to what governs
// every later statement in the block.
func (w *walker) block(b *ast.BlockStmt, cx ctx) {
	for _, st := range b.List {
		w.stmt(st, cx)
		if ifs, ok := st.(*ast.IfStmt); ok && ifs.Else == nil && endsInExit(ifs.Body) {
			cx = cx.with(ifs.Cond)
		}
	}
}

func (w *walker) stmt(s ast.Stmt, cx ctx) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s, cx)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, cx)
		}
		// Draws inside the condition itself are governed only by the
		// enclosing context (`if p > 0 && rng.Float64() < p` is the
		// sanctioned short-circuit draw).
		w.exprs(s.Cond, cx)
		inner := cx.with(s.Cond)
		w.block(s.Body, inner)
		if s.Else != nil {
			w.stmt(s.Else, inner)
		}
	case *ast.RangeStmt:
		w.exprs(s.X, cx)
		w.block(s.Body, cx)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, cx)
		}
		if s.Cond != nil {
			w.exprs(s.Cond, cx)
		}
		if s.Post != nil {
			w.stmt(s.Post, cx)
		}
		w.block(s.Body, cx)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, cx)
		}
		if s.Tag != nil {
			w.exprs(s.Tag, cx)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.exprs(e, cx)
				}
				for _, st := range cc.Body {
					w.stmt(st, cx)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					w.stmt(st, cx)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, cx)
				}
				for _, st := range cc.Body {
					w.stmt(st, cx)
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, cx)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.exprs(r, cx)
		}
		for _, l := range s.Lhs {
			w.exprs(l, cx)
		}
	case *ast.ExprStmt:
		w.exprs(s.X, cx)
	case *ast.SendStmt:
		w.exprs(s.Chan, cx)
		w.exprs(s.Value, cx)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.exprs(r, cx)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprs(v, cx)
					}
				}
			}
		}
	case *ast.GoStmt:
		w.exprs(s.Call, cx)
	case *ast.DeferStmt:
		w.exprs(s.Call, cx)
	case *ast.IncDecStmt:
		w.exprs(s.X, cx)
	}
}

// exprs scans an expression for draw calls under the current context.
// Function literals get a fresh context: their body runs under whatever
// governs their *call* site, which this syntactic pass does not track.
func (w *walker) exprs(x ast.Expr, cx ctx) {
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.block(n.Body, ctx{})
			return false
		case *ast.CallExpr:
			if recv, ok := w.drawCall(n); ok {
				w.checkDraw(n, recv, cx)
			}
		}
		return true
	})
}

// drawCall reports whether call is a random draw and returns its receiver
// expression.
func (w *walker) drawCall(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !drawMethods[sel.Sel.Name] {
		return nil, false
	}
	fn, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	if !streamType(sig.Recv().Type()) {
		return nil, false
	}
	return sel.X, true
}

// streamType reports whether t (possibly behind a pointer) is sim.Stream
// or math/rand.Rand.
func streamType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name, path := named.Obj().Name(), named.Obj().Pkg().Path()
	if name == "Stream" && (path == "sim" || strings.HasSuffix(path, "/sim")) {
		return true
	}
	return name == "Rand" && path == "math/rand"
}

// checkDraw applies the receiver-state rule to one draw site.
func (w *walker) checkDraw(call *ast.CallExpr, recv ast.Expr, cx ctx) {
	subject := w.subject(recv)
	if subject == "" {
		return // no per-host subject to compare a guard's index with
	}
	for _, cond := range cx {
		if guard, bad := w.receiverGuard(cond, subject); bad {
			w.pass.Reportf(call.Pos(), "draw from %s conditioned on receiver state (%s); randomness must be drawn sender-side from the host's own stream",
				render(recv), render(guard))
			return
		}
	}
}

// subject resolves which host's stream a draw consumes: the innermost
// index in the receiver chain, following one level of local binding
// (rng := e.rands[idx]).
func (w *walker) subject(recv ast.Expr) string {
	x := recv
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.IndexExpr:
			return lint.ExprString(e.Index)
		case *ast.SelectorExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.UnaryExpr:
			x = e.X
		case *ast.Ident:
			if obj := w.info.Uses[e]; obj != nil {
				return w.subjectOf[obj]
			}
			return ""
		default:
			return ""
		}
	}
}

// render names an expression for a diagnostic, spelling out the index of an
// indexed chain (lint.ExprString elides it) so the subject/guard mismatch is
// visible in the message.
func render(e ast.Expr) string {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		return lint.ExprString(ix.X) + "[" + lint.ExprString(ix.Index) + "]"
	}
	return lint.ExprString(e)
}

// receiverGuard scans a governing condition for a bool-element container
// indexed by something other than the draw's subject — receiver state.
func (w *walker) receiverGuard(cond ast.Expr, subject string) (*ast.IndexExpr, bool) {
	var guard *ast.IndexExpr
	ast.Inspect(cond, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok || guard != nil {
			return guard == nil
		}
		t := w.info.TypeOf(ix)
		if t == nil {
			return true
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Kind() != types.Bool {
			return true
		}
		if lint.ExprString(ix.Index) != subject {
			guard = ix
		}
		return true
	})
	return guard, guard != nil
}

// endsInExit reports whether the block's last statement leaves the
// enclosing flow — the early-exit guard shape whose condition governs
// everything after the if.
func endsInExit(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// subjects maps locals bound to an indexed stream back to the index:
// `rng := e.rands[idx]` gives rng the subject "idx".
func subjects(info *types.Info, body *ast.BlockStmt) map[types.Object]string {
	out := make(map[types.Object]string)
	record := func(l, r ast.Expr) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		x := r
	chain:
		for {
			switch e := ast.Unparen(x).(type) {
			case *ast.IndexExpr:
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					out[obj] = lint.ExprString(e.Index)
				}
				return
			case *ast.SelectorExpr:
				x = e.X
			case *ast.StarExpr:
				x = e.X
			case *ast.UnaryExpr:
				x = e.X
			default:
				break chain
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}
