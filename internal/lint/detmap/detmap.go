// Package detmap flags range-over-map loops in the deterministic simulator
// packages whose effects can depend on Go's randomized map iteration order.
//
// The golden-trace determinism test catches an order leak only after the
// fact, and only on the one scenario it pins. This analyzer catches the
// bug class at compile time: inside internal/{sim,fds,radio,cluster,
// intercluster,membership,sleep,mobility,scenario,montecarlo}, a `for k :=
// range m` over a map must be provably order-insensitive or sort its keys
// before acting on them.
//
// A loop body is accepted as order-insensitive when every statement is one
// of:
//
//   - a commutative accumulation into an integer: x++, x--, x += e,
//     x -= e, x |= e, x &= e, x ^= e, x = x + e, or x = max(x, e) /
//     min(x, e) with an iteration-pure e (float accumulation is rejected:
//     FP addition is not associative);
//   - an idempotent flag: x = <constant>, provided every assignment to x in
//     the loop stores the same constant;
//   - a write to another map or set keyed by iteration-pure expressions
//     with an iteration-pure value: m2[k] = e, delete(m2, k), or a call to
//     a method named Set/Unset/Add/Insert/Delete/Remove/Clear with
//     iteration-pure arguments (bitset/counter-style commutative ops). A
//     write whose key does not mention the range key while its value does
//     mention a loop variable is rejected (distinct iterations could race
//     into one colliding key), as is any insert into the map being ranged
//     (the spec leaves it unspecified whether new entries are visited);
//   - a comma-ok read — v, ok := m2[k] or v, ok := x.(T) — from an
//     iteration-pure source into body-local variables, which then count as
//     iteration-pure themselves;
//   - collecting keys into a slice — xs = append(xs, k) — provided xs is
//     passed to a sort (sort.*, slices.Sort*, or any function whose name
//     contains "sort") later in the same enclosing block;
//   - an if statement with an iteration-pure condition whose branches are
//     themselves order-insensitive; a nested loop whose body is
//     order-insensitive; continue; panic.
//
// An expression is iteration-pure when it reads only loop variables,
// loop-invariant state, and constants — never a variable the loop itself
// assigns. A call anywhere in the body, in statement or in expression
// position (`_ = f()`, `x := f()`, `if f() {`), must be a conversion, a
// builtin, one of the commutative methods above, or one of the read-only
// accessors in queryMethods; the analyzer does not look into callees, so
// any other call may schedule, draw or emit in map order. Early exits
// (break / return) are accepted only for pure existence checks: a body with
// no other effects that exits from a single site, either returning
// constants or guarded by an equality test on the range key (at most one
// key can match, so iteration order cannot pick a different winner).
//
// Everything else is reported, at the statement that leaks the order.
//
// _test.go files are exempt: the invariant guards the simulator's own
// event order, not the assertions around it.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clusterfds/internal/lint"
)

// Analyzer is the detmap invariant check.
var Analyzer = &lint.Analyzer{
	Name: "detmap",
	Doc: "flag range-over-map loops in the deterministic simulator packages " +
		"whose observable effects can depend on map iteration order",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.DeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if lint.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			c := &checker{pass: pass, rng: rng}
			c.check()
			return true
		})
	}
	return nil
}

// checker analyzes one range-over-map loop.
type checker struct {
	pass *lint.Pass
	rng  *ast.RangeStmt

	// loopVars are the range key/value variables plus nested loop
	// variables: reading them is iteration-pure.
	loopVars map[types.Object]bool
	// assigned are objects written anywhere in the body (accumulators,
	// flags, collectors, locals): reading them is NOT iteration-pure.
	assigned map[types.Object]bool
	// pureLocals are body-declared variables whose initializer was pure
	// when processed; reading them is pure.
	pureLocals map[types.Object]bool
	// constVals tracks the constant each flag variable stores, to reject
	// two different constants racing into the same variable; constFieldVals
	// does the same for field/pointer targets, keyed by rendered path.
	constVals      map[types.Object]string
	constFieldVals map[string]string
	// collectors are append targets that must be sorted after the loop.
	collectors map[types.Object]token.Pos
	// sameKeyMap allows `m2[k]` to appear in the RHS of `m2[k] = ...`.
	sameKeyExempt string

	hasWrites bool
	exits     []exitSite
	problems  []problem
}

type problem struct {
	pos    token.Pos
	reason string
}

type exitSite struct {
	pos token.Pos
	// constant results (or none) — safe from any single exit site.
	constResults bool
	// pure results guarded by a key-equality test — at most one match.
	keyGuarded bool
}

func (c *checker) check() {
	info := c.pass.TypesInfo
	c.loopVars = make(map[types.Object]bool)
	c.assigned = make(map[types.Object]bool)
	c.pureLocals = make(map[types.Object]bool)
	c.constVals = make(map[types.Object]string)
	c.constFieldVals = make(map[string]string)
	c.collectors = make(map[types.Object]token.Pos)
	for _, v := range []ast.Expr{c.rng.Key, c.rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				c.loopVars[obj] = true
			}
		}
	}
	// Pass 1: collect every assigned object so purity checks in pass 2 see
	// writes that occur later in the body.
	c.collectAssigned(c.rng.Body)
	// Pass 2: classify statements.
	c.block(c.rng.Body, false)
	// Pass 3: calls in expression position, which pass 2's purity test
	// (identifiers only) does not look at.
	c.exprCalls(c.rng.Body)
	// Early-exit policy.
	if len(c.exits) > 0 {
		if c.hasWrites {
			for _, e := range c.exits {
				c.problems = append(c.problems, problem{e.pos,
					"early exit from a loop that also accumulates state: which iterations ran depends on map order"})
			}
		} else if len(c.exits) == 1 {
			e := c.exits[0]
			if !e.constResults && !e.keyGuarded {
				c.problems = append(c.problems, problem{e.pos,
					"early exit returns an iteration-dependent value: a different map order picks a different result"})
			}
		} else {
			allGuarded := true
			for _, e := range c.exits {
				if !e.keyGuarded {
					allGuarded = false
				}
			}
			if !allGuarded {
				for _, e := range c.exits {
					c.problems = append(c.problems, problem{e.pos,
						"multiple early exits: map order decides which one fires"})
				}
			}
		}
	}
	// Collector policy: appended key slices must be sorted afterwards.
	for obj, at := range c.collectors {
		if !c.sortedLater(obj) {
			c.problems = append(c.problems, problem{at,
				"keys collected from the map range into " + obj.Name() + " are never sorted in this block"})
		}
	}
	for _, p := range c.problems {
		c.pass.Reportf(p.pos,
			"map iteration order is observable here (%s); make the loop order-insensitive or sort the keys first",
			p.reason)
	}
}

// collectAssigned records every object assigned (or ++/--) in the body.
func (c *checker) collectAssigned(body ast.Node) {
	info := c.pass.TypesInfo
	record := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj != nil {
				c.assigned[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				record(l)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
}

// block classifies each statement of a block (or branch).
func (c *checker) block(b *ast.BlockStmt, guardedByKeyEq bool) {
	for _, st := range b.List {
		c.stmt(st, guardedByKeyEq)
	}
}

func (c *checker) stmt(st ast.Stmt, guardedByKeyEq bool) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		c.assignStmt(st)
	case *ast.IncDecStmt:
		c.incDec(st)
	case *ast.ExprStmt:
		c.exprStmt(st)
	case *ast.BranchStmt:
		switch st.Tok {
		case token.CONTINUE:
			// harmless
		case token.BREAK:
			c.exits = append(c.exits, exitSite{pos: st.Pos(), constResults: true, keyGuarded: guardedByKeyEq})
		default: // goto, labeled break
			c.problems = append(c.problems, problem{st.Pos(), "control transfer out of the loop"})
		}
	case *ast.ReturnStmt:
		e := exitSite{pos: st.Pos(), constResults: true, keyGuarded: guardedByKeyEq}
		for _, r := range st.Results {
			if c.pass.TypesInfo.Types[r].Value == nil {
				e.constResults = false
				if !c.pure(r) {
					e.keyGuarded = false
				}
			}
		}
		c.exits = append(c.exits, e)
	case *ast.IfStmt:
		c.ifStmt(st, guardedByKeyEq)
	case *ast.BlockStmt:
		c.block(st, guardedByKeyEq)
	case *ast.RangeStmt:
		c.nestedLoop(st.Key, st.Value, st.X, st.Body, guardedByKeyEq)
	case *ast.ForStmt:
		if st.Init != nil {
			c.stmt(st.Init, guardedByKeyEq)
		}
		if st.Cond != nil && !c.pure(st.Cond) {
			// Loop conditions over accumulated state are fine only when the
			// accumulation itself is order-insensitive AND the loop runs to
			// completion; keep it simple and treat the inner for like a
			// guarded block.
		}
		if st.Post != nil {
			c.stmt(st.Post, guardedByKeyEq)
		}
		c.block(st.Body, guardedByKeyEq)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.declVars(vs)
				}
			}
		}
	case *ast.EmptyStmt:
	default:
		c.problems = append(c.problems, problem{st.Pos(), "statement of a kind the analyzer cannot prove order-insensitive"})
	}
}

// nestedLoop handles an inner for/range: its loop variables become pure and
// its body is classified under the same rules.
func (c *checker) nestedLoop(key, value, x ast.Expr, body *ast.BlockStmt, guarded bool) {
	info := c.pass.TypesInfo
	if x != nil && !c.pure(x) {
		c.problems = append(c.problems, problem{x.Pos(), "inner loop ranges over loop-carried state"})
	}
	for _, v := range []ast.Expr{key, value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				c.loopVars[obj] = true
			}
		}
	}
	c.block(body, guarded)
}

func (c *checker) declVars(vs *ast.ValueSpec) {
	info := c.pass.TypesInfo
	for i, name := range vs.Names {
		obj := info.Defs[name]
		if obj == nil {
			continue
		}
		pure := true
		if i < len(vs.Values) && !c.pure(vs.Values[i]) {
			pure = false
		}
		if pure {
			c.pureLocals[obj] = true
		}
	}
}

func (c *checker) incDec(st *ast.IncDecStmt) {
	if !c.integerAccumulator(st.X) {
		c.problems = append(c.problems, problem{st.Pos(), "non-integer increment"})
		return
	}
	c.hasWrites = true
}

func (c *checker) exprStmt(st *ast.ExprStmt) {
	call, ok := ast.Unparen(st.X).(*ast.CallExpr)
	if !ok {
		c.problems = append(c.problems, problem{st.Pos(), "expression statement with possible effects"})
		return
	}
	info := c.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "delete":
				if c.allPure(call.Args) {
					c.hasWrites = true
					return
				}
				c.problems = append(c.problems, problem{st.Pos(), "delete with loop-carried arguments"})
				return
			case "panic", "print", "println", "clear":
				return
			}
		}
	}
	// Commutative set/counter method calls: Set, Add, Insert, ... with
	// iteration-pure arguments. These are the bitset/metrics idioms the
	// dense-state rewrite introduced.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if commutativeMethods[sel.Sel.Name] && c.pure(sel.X) && c.allPure(call.Args) {
			c.hasWrites = true
			return
		}
	}
	c.problems = append(c.problems, problem{st.Pos(), "call whose effect the analyzer cannot prove order-insensitive"})
}

func (c *checker) ifStmt(st *ast.IfStmt, guarded bool) {
	if st.Init != nil {
		c.stmt(st.Init, guarded)
	}
	if !c.pure(st.Cond) {
		c.problems = append(c.problems, problem{st.Cond.Pos(), "branch condition reads loop-carried state"})
	}
	keyEq := guarded || c.keyEquality(st.Cond)
	c.block(st.Body, keyEq)
	switch e := st.Else.(type) {
	case *ast.BlockStmt:
		c.block(e, guarded)
	case *ast.IfStmt:
		c.ifStmt(e, guarded)
	}
}

// keyEquality reports whether cond is `key == pure` or `pure == key` for the
// range key variable: at most one iteration can satisfy it.
func (c *checker) keyEquality(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	keyObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[id]
		}
		if obj == nil || !c.loopVars[obj] {
			return false
		}
		// Must be THE range key (first var) — value equality can match many.
		if id2, ok := c.rng.Key.(*ast.Ident); ok {
			kobj := c.pass.TypesInfo.Defs[id2]
			return kobj == obj
		}
		return false
	}
	return (keyObj(be.X) && c.pure(be.Y)) || (keyObj(be.Y) && c.pure(be.X))
}

func (c *checker) assignStmt(st *ast.AssignStmt) {
	// x op= e forms.
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
		token.AND_ASSIGN, token.XOR_ASSIGN:
		l := st.Lhs[0]
		if !c.integerAccumulator(l) {
			c.problems = append(c.problems, problem{st.Pos(),
				"accumulation into a non-integer (float addition is not associative; string/slice concat is ordered)"})
			return
		}
		if !c.pure(st.Rhs[0]) {
			c.problems = append(c.problems, problem{st.Pos(), "accumulation of a loop-carried value"})
			return
		}
		c.hasWrites = true
		return
	case token.ASSIGN, token.DEFINE:
	default:
		c.problems = append(c.problems, problem{st.Pos(), "assignment operator the analyzer cannot prove commutative"})
		return
	}
	if len(st.Lhs) != len(st.Rhs) {
		if c.commaOK(st) {
			return
		}
		c.problems = append(c.problems, problem{st.Pos(), "multi-value assignment the analyzer cannot prove order-insensitive"})
		return
	}
	for i, l := range st.Lhs {
		r := st.Rhs[i]
		c.onePlainAssign(st, l, r)
	}
}

func (c *checker) onePlainAssign(st *ast.AssignStmt, l, r ast.Expr) {
	info := c.pass.TypesInfo
	l = ast.Unparen(l)

	// Blank: pure discard.
	if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
		if !c.pure(r) {
			c.problems = append(c.problems, problem{st.Pos(), "discard of a loop-carried value"})
		}
		return
	}

	// m2[idx] = e — map/set write with pure key and value. Reading the same
	// element (m2[idx]) inside e is fine: each key is visited once.
	if ix, ok := l.(*ast.IndexExpr); ok {
		if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
			if exprKey(ix.X) == exprKey(c.rng.X) {
				c.problems = append(c.problems, problem{st.Pos(),
					"insert into the map being ranged: the spec leaves it unspecified whether new entries are visited"})
				return
			}
			c.sameKeyExempt = exprKey(ix)
			pureIdx := c.pure(ix.Index)
			pureRHS := c.pure(r)
			c.sameKeyExempt = ""
			if !c.pure(ix.X) || !pureIdx || !pureRHS {
				c.problems = append(c.problems, problem{st.Pos(), "map write with loop-carried key or value"})
				return
			}
			// Injectivity heuristic: a key that mentions the range key is
			// (typically) distinct per iteration; a key that does not, paired
			// with a value that reads a loop variable, lets two iterations
			// race different values into one colliding slot.
			if !c.mentionsRangeKey(ix.Index) && c.mentionsLoopVar(r) {
				c.problems = append(c.problems, problem{st.Pos(),
					"map write to a possibly colliding key with an iteration-dependent value: the last iteration in map order wins"})
				return
			}
			c.hasWrites = true
			return
		}
		c.problems = append(c.problems, problem{st.Pos(), "indexed write the analyzer cannot prove order-insensitive"})
		return
	}

	// Field / pointer targets outlive the loop: only an idempotent
	// same-constant store is order-insensitive.
	if _, isSel := l.(*ast.SelectorExpr); isSel {
		c.fieldAssign(st, l, r)
		return
	}
	if _, isStar := l.(*ast.StarExpr); isStar {
		c.fieldAssign(st, l, r)
		return
	}

	id, ok := l.(*ast.Ident)
	if !ok {
		c.problems = append(c.problems, problem{st.Pos(), "write through " + exprKey(l) + " the analyzer cannot prove order-insensitive"})
		return
	}
	obj := info.Defs[id]
	defined := st.Tok == token.DEFINE && obj != nil
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}

	// xs = append(xs, pure...) — key collection; must be sorted later.
	if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
		if bid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && bid.Name == "append" {
			if _, isBuiltin := info.Uses[bid].(*types.Builtin); isBuiltin && len(call.Args) >= 1 {
				if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && sameObj(info, first, id) && c.allPure(call.Args[1:]) {
					c.collectors[obj] = st.Pos()
					c.hasWrites = true
					return
				}
			}
		}
		// x = max(x, pure) / min(x, pure): commutative, associative.
		if bid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (bid.Name == "max" || bid.Name == "min") {
			if _, isBuiltin := info.Uses[bid].(*types.Builtin); isBuiltin && len(call.Args) == 2 {
				if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && sameObj(info, first, id) && c.pure(call.Args[1]) {
					c.hasWrites = true
					return
				}
			}
		}
	}

	// x = x + pure (and |, &, ^): spelled-out accumulation.
	if be, ok := ast.Unparen(r).(*ast.BinaryExpr); ok {
		switch be.Op {
		case token.ADD, token.SUB, token.OR, token.AND, token.XOR:
			if lid, ok := ast.Unparen(be.X).(*ast.Ident); ok && sameObj(info, lid, id) && c.pure(be.Y) && c.integerAccumulator(l) {
				c.hasWrites = true
				return
			}
		}
	}

	// Constant flag: x = <const>, same constant at every assignment site.
	if tv := info.Types[r]; tv.Value != nil {
		val := tv.Value.ExactString()
		if prev, ok := c.constVals[obj]; ok && prev != val {
			c.problems = append(c.problems, problem{st.Pos(),
				"two different constants race into " + id.Name + ": the last iteration in map order wins"})
			return
		}
		c.constVals[obj] = val
		c.hasWrites = true
		return
	}

	// Body-local temp with a pure initializer: reading it stays pure.
	if defined || c.bodyLocal(obj) {
		if c.pure(r) {
			c.pureLocals[obj] = true
			return
		}
		c.problems = append(c.problems, problem{st.Pos(), "local accumulates a loop-carried value"})
		return
	}

	c.problems = append(c.problems, problem{st.Pos(),
		"loop-dependent value assigned to " + id.Name + ", which outlives the loop: the last iteration in map order wins"})
}

// fieldAssign classifies `x.f = e` / `*p = e` inside the loop: allowed only
// as an idempotent flag (the same constant from every site).
func (c *checker) fieldAssign(st *ast.AssignStmt, l, r ast.Expr) {
	info := c.pass.TypesInfo
	key := exprKey(l)
	if tv := info.Types[r]; tv.Value != nil {
		val := tv.Value.ExactString()
		if prev, ok := c.constFieldVals[key]; ok && prev != val {
			c.problems = append(c.problems, problem{st.Pos(),
				"two different constants race into " + key + ": the last iteration in map order wins"})
			return
		}
		c.constFieldVals[key] = val
		c.hasWrites = true
		return
	}
	c.problems = append(c.problems, problem{st.Pos(),
		"loop-dependent value assigned to " + key + ", which outlives the loop: the last iteration in map order wins"})
}

// commaOK accepts `v, ok := m2[k]` and `v, ok := x.(T)` with an
// iteration-pure source and body-local targets, which then count as
// iteration-pure reads themselves. Channel receives and function calls are
// deliberately excluded: their results can depend on visit order.
func (c *checker) commaOK(st *ast.AssignStmt) bool {
	if len(st.Rhs) != 1 {
		return false
	}
	switch r := ast.Unparen(st.Rhs[0]).(type) {
	case *ast.IndexExpr:
		if !c.pure(r.X) || !c.pure(r.Index) {
			return false
		}
	case *ast.TypeAssertExpr:
		if !c.pure(r.X) {
			return false
		}
	default:
		return false
	}
	info := c.pass.TypesInfo
	var targets []types.Object
	for _, l := range st.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			return false
		}
		if id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !c.bodyLocal(obj) {
			return false
		}
		targets = append(targets, obj)
	}
	for _, obj := range targets {
		c.pureLocals[obj] = true
	}
	return true
}

// mentionsRangeKey reports whether e reads the loop's range-key variable.
func (c *checker) mentionsRangeKey(e ast.Expr) bool {
	kid, ok := c.rng.Key.(*ast.Ident)
	if !ok || kid.Name == "_" {
		return false
	}
	kobj := c.pass.TypesInfo.Defs[kid]
	if kobj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == kobj {
			found = true
		}
		return !found
	})
	return found
}

// mentionsLoopVar reports whether e reads any loop variable (range key,
// range value, or a nested loop's variables).
func (c *checker) mentionsLoopVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.loopVars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyLocal reports whether obj is declared inside the range body.
func (c *checker) bodyLocal(obj types.Object) bool {
	return obj.Pos() >= c.rng.Body.Pos() && obj.Pos() <= c.rng.Body.End()
}

// integerAccumulator reports whether l is an addressable integer-typed
// expression with an iteration-pure path.
func (c *checker) integerAccumulator(l ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(l)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return false
	}
	// The accumulator location itself must be iteration-pure (e.g. not
	// indexed by an accumulated counter).
	switch e := ast.Unparen(l).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return c.pure(e.X)
	case *ast.IndexExpr:
		return c.pure(e.X) && c.pure(e.Index)
	}
	return false
}

func (c *checker) allPure(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !c.pure(e) {
			return false
		}
	}
	return true
}

// pure reports whether e reads only loop variables, loop-invariant state,
// and constants — never an object the loop assigns.
func (c *checker) pure(e ast.Expr) bool {
	if e == nil {
		return true
	}
	info := c.pass.TypesInfo
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			if c.sameKeyExempt != "" && exprKey(n) == c.sameKeyExempt {
				return false // reading the element being written: same key
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				obj = info.Defs[n]
			}
			if obj == nil {
				return true
			}
			if c.loopVars[obj] || c.pureLocals[obj] {
				return true
			}
			if c.assigned[obj] {
				pure = false
			}
		}
		return true
	})
	return pure
}

// commutativeMethods are the set/counter verbs whose effect does not depend
// on the order of calls with distinct arguments (bitset, map-set and metrics
// idioms). Like queryMethods, matched by name. Observe is not one of them:
// metrics.Histogram.Observe folds a float sum, which is order-sensitive.
var commutativeMethods = map[string]bool{
	"Set": true, "Unset": true, "Add": true, "Insert": true,
	"Delete": true, "Remove": true, "Clear": true,
}

// queryMethods are the read-only accessors the tree's map ranges call in
// conditions and arguments: node.Host.ID and Crashed, the detectors'
// IsSuspected, strings.HasPrefix, time.Duration.Seconds.
var queryMethods = map[string]bool{
	"ID": true, "Crashed": true, "IsSuspected": true, "HasPrefix": true, "Seconds": true,
}

// exprCalls reports every call in expression position — `_ = f()`,
// `x := f()`, `if f() {`, an argument — whose callee is not known to be
// free of order-observable effects: a conversion, a builtin other than
// copy, or a method on one of the two name lists. Any other callee may
// schedule, draw or emit, and the analyzer does not look into it. A call
// that is a statement of its own is exprStmt's.
func (c *checker) exprCalls(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	stmtCall := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				stmtCall[call] = true
			}
		case *ast.CallExpr:
			if stmtCall[n] || info.Types[n.Fun].IsType() {
				return true
			}
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin && fun.Name != "copy" {
					return true
				}
			case *ast.SelectorExpr:
				if commutativeMethods[fun.Sel.Name] || queryMethods[fun.Sel.Name] {
					return true
				}
			}
			c.problems = append(c.problems, problem{n.Pos(), "call whose effect the analyzer cannot prove order-insensitive"})
			return false // one finding for w.Kernel.Rand().Intn(2), not two
		}
		return true
	})
}

// sortedLater reports whether the collector object is passed to a sort call
// in a statement after the range loop within the enclosing blocks.
func (c *checker) sortedLater(obj types.Object) bool {
	found := false
	for _, f := range c.pass.Files {
		if f.Pos() <= c.rng.Pos() && c.rng.End() <= f.End() {
			ast.Inspect(f, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || call.Pos() < c.rng.End() {
					return true
				}
				if !isSortCall(c.pass.TypesInfo, call) {
					return true
				}
				mentions := false
				for _, a := range call.Args {
					ast.Inspect(a, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if o := c.pass.TypesInfo.Uses[id]; o == obj {
								mentions = true
							}
						}
						return !mentions
					})
				}
				if !mentions {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						ast.Inspect(sel.X, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								if o := c.pass.TypesInfo.Uses[id]; o == obj {
									mentions = true
								}
							}
							return !mentions
						})
					}
				}
				if mentions {
					found = true
				}
				return !found
			})
		}
	}
	return found
}

// isSortCall recognizes sort.*, slices.Sort*, methods named Sort, and any
// function whose name mentions sorting.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lint.PkgFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sort", "slices":
			return true
		}
	}
	return strings.Contains(strings.ToLower(fn.Name()), "sort")
}

func sameObj(info *types.Info, a, b *ast.Ident) bool {
	oa := info.Uses[a]
	if oa == nil {
		oa = info.Defs[a]
	}
	ob := info.Uses[b]
	if ob == nil {
		ob = info.Defs[b]
	}
	return oa != nil && oa == ob
}

// exprKey renders an expression for same-key comparison and diagnostics.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return "*" + exprKey(e.X)
	case *ast.CallExpr:
		return exprKey(e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}
