package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafe makes the arena's ownership protocol static. The core pool
// (internal/core/pool.go) recycles dense slabs and message buffers
// through explicit free lists; the protocol says a
// buffer has exactly one owner at a time and release re-establishes the
// emptiness invariant. Poison-on-release catches violations dynamically
// — but only on the execution that happens to recycle the buffer into a
// reader. This analyzer walks each function's control flow and enforces
// the discipline on every path:
//
//   - every acquire (getSlab/getBuf/getBatch on an arena or
//     Engine receiver) bound to a local variable must be resolved on all
//     paths out of the function — released with the matching put, handed
//     off (stored into a field, sent on a channel, passed to a call,
//     returned), or covered by a deferred release that also fires on
//     panic unwinds and error returns;
//   - after a release, the variable is dead: any further use — reading
//     through it, releasing it again, storing it into a struct field,
//     global, or channel — is a finding, because the arena may already
//     have recycled the memory into another owner;
//   - an acquire whose result is discarded leaks immediately;
//   - an acquire inside a loop body must be resolved within that body
//     (one iteration's buffer must not depend on a later iteration to
//     free it).
//
// Handoff intentionally ends the analysis: ownership transfer is the
// design (dispatcher fills, mailbox carries, computer drains), and the
// receiving function is checked on its own. The analysis is
// intra-function and conservative; a pattern the walker cannot prove
// safe carries a //lint:poolsafe <reason> justification.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc: "core pool acquire/release discipline: every acquire released or " +
		"handed off on all paths, no use of pooled memory after release",
	Packages: []string{"internal/core"},
	Run:      runPoolSafe,
}

var poolAcquireNames = map[string]bool{
	"getSlab": true, "getBuf": true, "getBatch": true,
}

var poolReleaseNames = map[string]bool{
	"putSlab": true, "putBuf": true, "putBatch": true,
}

// poolReceiverTypes are the named types whose get/put methods move
// buffers in and out of the arena. Fixtures model them with local
// doubles of the same names (methodOn does not check the package).
var poolReceiverTypes = map[string]bool{"arena": true, "Engine": true}

func poolCallName(info *types.Info, call *ast.CallExpr, names map[string]bool) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !names[sel.Sel.Name] {
		return "", false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	if !poolReceiverTypes[namedTypeName(s.Recv())] {
		return "", false
	}
	return sel.Sel.Name, true
}

// poolVarState tracks one pooled buffer bound to a local variable.
type poolVarState struct {
	status     int // psOwned or psReleased
	acquirePos token.Pos
	acquire    string // acquiring method name, for messages
	release    string // releasing method name (psReleased), for messages
	deferred   bool   // a deferred release covers every exit, panics included
}

const (
	psOwned = iota
	psReleased
)

// poolState maps local variables to their buffer state. It is cloned at
// every branch point and merged conservatively afterwards.
type poolState map[*types.Var]*poolVarState

func (s poolState) clone() poolState {
	out := make(poolState, len(s))
	for k, v := range s {
		cp := *v
		out[k] = &cp
	}
	return out
}

// merge folds a branch's outcome back into s. A variable owned in either
// retains the ownership obligation; a release observed in either arm is
// kept so later uses are flagged (conservative: the release may not have
// happened on the taken path, but using a maybe-released buffer is
// exactly the race poison-on-release exists to catch).
func (s poolState) merge(b poolState) {
	for v, bs := range b {
		cur, ok := s[v]
		if !ok {
			s[v] = bs
			continue
		}
		if bs.status == psReleased && cur.status != psReleased {
			*cur = *bs
		}
		if bs.deferred {
			cur.deferred = true
		}
	}
}

type poolSafeCtx struct {
	pass *Pass
	info *types.Info
}

func runPoolSafe(pass *Pass) {
	ctx := &poolSafeCtx{pass: pass, info: pass.Pkg.Info}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			state := make(poolState)
			terminated := ctx.block(fn.Body.List, state)
			if !terminated {
				ctx.checkLeaks(state, token.NoPos)
			}
		}
	}
}

// checkLeaks reports every still-owned, non-deferred buffer. at is the
// return statement position, or NoPos at function end (then the report
// anchors at the acquire).
func (c *poolSafeCtx) checkLeaks(state poolState, at token.Pos) {
	var leaks []*poolVarState
	for _, vs := range state {
		if vs.status == psOwned && !vs.deferred {
			leaks = append(leaks, vs)
		}
	}
	// Deterministic order for multiple leaks on one path.
	for i := range leaks {
		for j := i + 1; j < len(leaks); j++ {
			if leaks[j].acquirePos < leaks[i].acquirePos {
				leaks[i], leaks[j] = leaks[j], leaks[i]
			}
		}
	}
	for _, vs := range leaks {
		pos := at
		where := "on this return path"
		if pos == token.NoPos {
			pos = vs.acquirePos
			where = "by function end"
		}
		c.pass.Reportf(pos, "pooled buffer from %s is not released or handed off %s; release it (defer covers panics) or justify with //lint:poolsafe", vs.acquire, where)
	}
}

// block walks a statement list, returning true when the list definitely
// terminates (return / panic / branch) before falling off the end.
func (c *poolSafeCtx) block(stmts []ast.Stmt, state poolState) bool {
	for _, s := range stmts {
		if c.stmt(s, state) {
			return true
		}
	}
	return false
}

// stmt analyzes one statement, returning true when control definitely
// leaves the enclosing block here.
func (c *poolSafeCtx) stmt(stmt ast.Stmt, state poolState) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		c.assign(s, state)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					c.expr(val, state, true)
				}
				// A declared name shadows any tracked outer binding.
				for _, name := range vs.Names {
					if obj, ok := c.info.Defs[name].(*types.Var); ok {
						delete(state, obj)
					}
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.bindAcquire(name, vs.Values[i], state)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, ok := poolCallName(c.info, call, poolAcquireNames); ok {
				c.pass.Reportf(call.Pos(), "result of %s is discarded: the pooled buffer leaks immediately", name)
				c.exprs(call.Args, state)
				return false
			}
		}
		c.expr(s.X, state, true)
	case *ast.DeferStmt:
		c.deferStmt(s, state)
	case *ast.GoStmt:
		c.expr(s.Call, state, true)
	case *ast.SendStmt:
		c.expr(s.Chan, state, false)
		c.expr(s.Value, state, true) // send is a handoff (or a use-after-release)
	case *ast.IncDecStmt:
		c.expr(s.X, state, false)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, state, true) // returning a buffer is a handoff
		}
		c.checkLeaks(state, s.Pos())
		return true
	case *ast.BranchStmt:
		// break/continue/goto: control leaves this block. Leak detection
		// for loop-acquired buffers happens at the loop handler.
		return true
	case *ast.BlockStmt:
		return c.block(s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, state)
		}
		c.expr(s.Cond, state, false)
		thenState := state.clone()
		thenTerm := c.block(s.Body.List, thenState)
		var elseState poolState
		elseTerm := false
		if s.Else != nil {
			elseState = state.clone()
			elseTerm = c.stmt(s.Else, elseState)
		}
		switch {
		case s.Else == nil:
			if !thenTerm {
				state.merge(thenState)
			}
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			// Only the else path continues.
			replace(state, elseState)
		case elseTerm:
			replace(state, thenState)
		default:
			replace(state, thenState)
			state.merge(elseState)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, state)
		}
		if s.Cond != nil {
			c.expr(s.Cond, state, false)
		}
		c.loopBody(s.Body, s.Post, state)
	case *ast.RangeStmt:
		c.expr(s.X, state, false)
		c.loopBody(s.Body, nil, state)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, state)
		}
		if s.Tag != nil {
			c.expr(s.Tag, state, false)
		}
		c.caseClauses(s.Body.List, state)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, state)
		}
		c.stmt(s.Assign, state)
		c.caseClauses(s.Body.List, state)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			branch := state.clone()
			if comm.Comm != nil {
				c.stmt(comm.Comm, branch)
			}
			if !c.block(comm.Body, branch) {
				state.merge(branch)
			}
		}
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, state)
	}
	return false
}

// replace overwrites s with b in place (branch state superseding the
// pre-branch state).
func replace(s, b poolState) {
	for k := range s {
		delete(s, k)
	}
	for k, v := range b {
		s[k] = v
	}
}

// loopBody analyzes a loop body on a cloned state: a buffer acquired
// inside the body must be resolved before the iteration ends, since the
// next iteration rebinds the variable and the reference is lost.
func (c *poolSafeCtx) loopBody(body *ast.BlockStmt, post ast.Stmt, state poolState) {
	inner := state.clone()
	terminated := c.block(body.List, inner)
	if post != nil {
		c.stmt(post, inner)
	}
	for v, vs := range inner {
		if _, preexisting := state[v]; preexisting {
			continue
		}
		if vs.status == psOwned && !vs.deferred && !terminated {
			c.pass.Reportf(vs.acquirePos, "pooled buffer from %s acquired in a loop is not released or handed off within the iteration; release it or justify with //lint:poolsafe", vs.acquire)
		}
	}
	// Releases observed in the body still poison later uses outside.
	for v, vs := range inner {
		if _, preexisting := state[v]; preexisting && vs.status == psReleased {
			*state[v] = *vs
		}
	}
}

func (c *poolSafeCtx) caseClauses(clauses []ast.Stmt, state poolState) {
	allTerm := len(clauses) > 0
	merged := false
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		branch := state.clone()
		c.exprs(cc.List, branch)
		if c.block(cc.Body, branch) {
			continue
		}
		allTerm = false
		state.merge(branch)
		merged = true
	}
	_ = allTerm
	_ = merged
}

// assign handles acquires, rebinds, and handoffs through assignment.
func (c *poolSafeCtx) assign(s *ast.AssignStmt, state poolState) {
	// RHS first: a tracked buffer on the right of an assignment is being
	// stored somewhere — a handoff (or a use-after-release).
	for _, r := range s.Rhs {
		c.expr(r, state, true)
	}
	for _, l := range s.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if obj := c.lookupVar(id); obj != nil {
				// Rebinding the name drops the old tracking entry. (An
				// unreleased buffer overwritten this way is out of scope
				// for the intra-function analysis.)
				delete(state, obj)
			}
			continue
		}
		// Field / index / deref target: uses inside are reads.
		c.expr(l, state, false)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok {
				c.bindAcquire(id, s.Rhs[i], state)
			}
		}
	}
}

// bindAcquire starts tracking name when value is a pool acquire call
// assigned to a plain local variable. Acquires not bound to an ident
// (stored straight into a field, passed as an argument) are handoffs at
// birth and intentionally untracked.
func (c *poolSafeCtx) bindAcquire(name *ast.Ident, value ast.Expr, state poolState) {
	call, ok := ast.Unparen(value).(*ast.CallExpr)
	if !ok {
		return
	}
	acq, ok := poolCallName(c.info, call, poolAcquireNames)
	if !ok {
		return
	}
	obj := c.lookupVar(name)
	if obj == nil {
		return
	}
	state[obj] = &poolVarState{status: psOwned, acquirePos: call.Pos(), acquire: acq}
}

// deferStmt recognizes deferred releases: defer putX(v) directly, or a
// deferred function literal whose body releases v. A deferred release
// runs on every exit from the function, panics included.
func (c *poolSafeCtx) deferStmt(s *ast.DeferStmt, state poolState) {
	if name, ok := poolCallName(c.info, s.Call, poolReleaseNames); ok {
		_ = name
		for _, arg := range s.Call.Args {
			if obj := c.argVar(arg); obj != nil {
				if vs, ok := state[obj]; ok {
					vs.deferred = true
				}
			}
		}
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := poolCallName(c.info, call, poolReleaseNames); !ok {
				return true
			}
			for _, arg := range call.Args {
				if obj := c.argVar(arg); obj != nil {
					if vs, ok := state[obj]; ok {
						vs.deferred = true
					}
				}
			}
			return true
		})
		return
	}
	c.expr(s.Call, state, true)
}

// exprs checks a list of expressions in non-escaping (read) position.
func (c *poolSafeCtx) exprs(list []ast.Expr, state poolState) {
	for _, e := range list {
		c.expr(e, state, false)
	}
}

// expr walks e, flagging uses of released buffers and resolving owned
// buffers that escape whole (escapes=true at positions where the value
// itself is stored, passed, sent, or returned).
func (c *poolSafeCtx) expr(e ast.Expr, state poolState, escapes bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		obj := c.lookupVar(e)
		if obj == nil {
			return
		}
		vs, ok := state[obj]
		if !ok {
			return
		}
		if vs.status == psReleased {
			c.pass.Reportf(e.Pos(), "use of pooled buffer %s after %s released it: the arena may already have recycled this memory", e.Name, vs.release)
			return
		}
		if escapes {
			delete(state, obj) // handoff: ownership leaves this function's scope
		}
	case *ast.ParenExpr:
		c.expr(e.X, state, escapes)
	case *ast.UnaryExpr:
		c.expr(e.X, state, escapes)
	case *ast.StarExpr:
		c.expr(e.X, state, false)
	case *ast.SliceExpr:
		// A subslice still references the pooled backing array: passing
		// it on is a handoff, using it after release is a violation.
		c.expr(e.X, state, escapes)
		c.expr(e.Low, state, false)
		c.expr(e.High, state, false)
		c.expr(e.Max, state, false)
	case *ast.IndexExpr:
		c.expr(e.X, state, false)
		c.expr(e.Index, state, false)
	case *ast.SelectorExpr:
		c.expr(e.X, state, false)
	case *ast.CallExpr:
		c.call(e, state)
	case *ast.BinaryExpr:
		c.expr(e.X, state, false)
		c.expr(e.Y, state, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.expr(kv.Value, state, true)
				continue
			}
			c.expr(el, state, true)
		}
	case *ast.KeyValueExpr:
		c.expr(e.Value, state, true)
	case *ast.TypeAssertExpr:
		c.expr(e.X, state, false)
	case *ast.FuncLit:
		// A closure capturing a tracked buffer takes a reference of
		// unknown lifetime: treat every captured tracked var as escaped,
		// and flag captured released vars.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			c.expr(id, state, true)
			return true
		})
	}
}

// call handles release transitions and argument handoffs.
func (c *poolSafeCtx) call(call *ast.CallExpr, state poolState) {
	if rel, ok := poolCallName(c.info, call, poolReleaseNames); ok {
		c.expr(ast.Unparen(call.Fun).(*ast.SelectorExpr).X, state, false)
		for _, arg := range call.Args {
			obj := c.argVar(arg)
			if obj == nil {
				c.expr(arg, state, false)
				continue
			}
			vs, ok := state[obj]
			if !ok {
				// Parameter or field-derived variable: begin tracking at
				// the release so later uses are caught.
				state[obj] = &poolVarState{status: psReleased, release: rel}
				continue
			}
			if vs.status == psReleased {
				c.pass.Reportf(arg.Pos(), "pooled buffer released twice (%s after %s): double-release corrupts the free list", rel, vs.release)
				continue
			}
			vs.status = psReleased
			vs.release = rel
		}
		return
	}
	c.expr(call.Fun, state, false)
	for _, arg := range call.Args {
		c.expr(arg, state, true) // passing a buffer to a call is a handoff
	}
}

// argVar unwraps parens and slice expressions and resolves the argument
// to a local variable object, or nil.
func (c *poolSafeCtx) argVar(arg ast.Expr) *types.Var {
	for {
		switch a := arg.(type) {
		case *ast.ParenExpr:
			arg = a.X
		case *ast.SliceExpr:
			arg = a.X
		default:
			if id, ok := arg.(*ast.Ident); ok {
				return c.lookupVar(id)
			}
			return nil
		}
	}
}

func (c *poolSafeCtx) lookupVar(id *ast.Ident) *types.Var {
	if obj, ok := c.info.Uses[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := c.info.Defs[id].(*types.Var); ok {
		return obj
	}
	return nil
}
