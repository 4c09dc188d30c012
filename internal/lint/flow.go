package lint

// flow.go is the statement walker under the flow-sensitive analyzers:
// elsastate's typestate and elsachan's send-after-close. It owns
// control flow and nothing else. An analysis brings a per-cell may-set
// lattice (flowValue) and transfer functions for calls, bindings and
// sends (flowHooks); the walker decides which states reach which
// statement:
//
//   - the arms of if/switch/select are joined; a switch without a
//     default also joins the state that skips every arm, and a select
//     always runs exactly one arm;
//   - a loop runs to a fixpoint of the join, so each statement in it
//     sees every state an earlier iteration can leave behind;
//   - return ends a path; so do goto and fallthrough, whose state is
//     dropped rather than followed (the tree uses neither);
//   - break carries its state to the exit of the loop, switch or
//     select it leaves, continue to the loop head, labels included;
//   - range key and value are rebound on every iteration;
//   - a function literal called in place runs in order, one passed as
//     a call argument may run inside the callee (a joined branch), and
//     any other — bound, deferred or go'd — is checked from the state
//     where it appears and never advances the walk;
//   - each finding is reported once: iterations up to a loop's
//     fixpoint are walked silently, then the body is walked one last
//     time, reporting, from the fixpoint state.

import (
	"go/ast"
	"go/token"
	"maps"
)

// flowValue is one cell's lattice element. The zero value stands for a
// cell absent from the state: no event of the analysis reached it.
type flowValue[V any] interface {
	join(V) V    // least upper bound; the receiver is never mutated
	same(V) bool // equal as lattice elements: the fixpoint test
}

// flowState maps cells to their values on the paths reaching a point
// of the walk. nil means no path reaches it.
type flowState[C comparable, V flowValue[V]] map[C]V

// flowHooks are an analysis's transfer functions. Each updates st in
// place and reports through the walker.
type flowHooks[C comparable, V flowValue[V]] interface {
	// call applies a call after its function and arguments ran.
	call(c *ast.CallExpr, st flowState[C, V])
	// bind applies lhs taking rhs's value; rhs is nil when the walk
	// cannot see the value (range variables, tuple assignments, a
	// receiver handed to another goroutine).
	bind(lhs, rhs ast.Expr, st flowState[C, V])
	// send applies a channel send after its operands ran.
	send(s *ast.SendStmt, st flowState[C, V])
}

// flowTarget is a statement break or continue can leave for, with the
// states that do.
type flowTarget[C comparable, V flowValue[V]] struct {
	label     string
	loop      bool
	brk, cont flowState[C, V]
}

// flowWalker walks one function at a time.
type flowWalker[C comparable, V flowValue[V]] struct {
	hooks   flowHooks[C, V]
	rep     *reporter
	quiet   int                 // > 0 inside a loop's silent iterations
	targets []*flowTarget[C, V] // enclosing breakable statements, innermost last
	ret     flowState[C, V]     // states returning from the current function
}

// reportf reports a finding unless the walk is in a silent iteration.
func (w *flowWalker[C, V]) reportf(pos token.Pos, format string, args ...interface{}) {
	if w.quiet == 0 {
		w.rep.reportf(pos, format, args...)
	}
}

// fn walks a function body from st and returns the state at its exits.
func (w *flowWalker[C, V]) fn(body *ast.BlockStmt, st flowState[C, V]) flowState[C, V] {
	targets, ret := w.targets, w.ret
	w.targets, w.ret = nil, nil
	end := joinFlow(w.stmts(body.List, st), w.ret)
	w.targets, w.ret = targets, ret
	return end
}

func (w *flowWalker[C, V]) stmts(list []ast.Stmt, st flowState[C, V]) flowState[C, V] {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

// stmt walks one statement from st, which it may update in place, and
// returns the state that falls through it.
func (w *flowWalker[C, V]) stmt(s ast.Stmt, st flowState[C, V]) flowState[C, V] {
	if st == nil {
		return nil // unreachable
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
		w.hooks.send(s, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, st)
		}
		for i, l := range s.Lhs {
			var r ast.Expr
			if len(s.Rhs) == len(s.Lhs) && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
				r = s.Rhs[i]
			}
			w.hooks.bind(l, r, st)
		}
	case *ast.DeclStmt:
		gd, _ := s.Decl.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.expr(v, st)
			}
			for i, name := range vs.Names {
				var r ast.Expr
				if len(vs.Values) == len(vs.Names) {
					r = vs.Values[i]
				}
				w.hooks.bind(name, r, st)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, st)
		}
		w.ret = joinFlow(w.ret, st)
		return nil
	case *ast.BranchStmt:
		if t := w.target(s); t != nil {
			switch s.Tok {
			case token.BREAK:
				t.brk = joinFlow(t.brk, st)
			case token.CONTINUE:
				t.cont = joinFlow(t.cont, st)
			}
		}
		return nil
	case *ast.DeferStmt:
		w.detached(s.Call, st)
	case *ast.GoStmt:
		w.detached(s.Call, st)
		if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
			// A method running on another goroutine races the rest of the
			// function: its receiver's value is unknown from the launch.
			w.hooks.bind(sel.X, nil, st)
		}
	case *ast.IfStmt:
		st = w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		els := maps.Clone(st)
		if s.Else != nil {
			els = w.stmt(s.Else, els)
		}
		return joinFlow(w.stmt(s.Body, st), els)
	case *ast.LabeledStmt:
		return w.breakable(s.Stmt, s.Label.Name, st)
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.breakable(s, "", st)
	}
	return st
}

// detached checks a deferred or go'd function literal from the state
// where it is registered; it never advances the walk.
func (w *flowWalker[C, V]) detached(call *ast.CallExpr, st flowState[C, V]) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.fn(lit.Body, maps.Clone(st))
	}
}

// target resolves the statement a break or continue leaves for.
func (w *flowWalker[C, V]) target(b *ast.BranchStmt) *flowTarget[C, V] {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if b.Label != nil && t.label == b.Label.Name ||
			b.Label == nil && (b.Tok == token.BREAK || t.loop) {
			return t
		}
	}
	return nil
}

// breakable walks a statement that break (or, for loops, continue) can
// name, under an optional label.
func (w *flowWalker[C, V]) breakable(s ast.Stmt, label string, st flowState[C, V]) flowState[C, V] {
	t := &flowTarget[C, V]{label: label}
	w.targets = append(w.targets, t)
	defer func() { w.targets = w.targets[:len(w.targets)-1] }()
	switch s := s.(type) {
	case *ast.ForStmt:
		t.loop = true
		return w.loop(t, w.stmt(s.Init, st), func(h flowState[C, V]) (next, exit flowState[C, V]) {
			w.expr(s.Cond, h)
			if s.Cond != nil {
				exit = maps.Clone(h)
			}
			return w.stmt(s.Post, joinFlow(w.stmt(s.Body, h), t.cont)), exit
		})
	case *ast.RangeStmt:
		t.loop = true
		w.expr(s.X, st)
		return w.loop(t, st, func(h flowState[C, V]) (next, exit flowState[C, V]) {
			exit = maps.Clone(h)
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if v != nil {
					w.hooks.bind(v, nil, h)
				}
			}
			return joinFlow(w.stmt(s.Body, h), t.cont), exit
		})
	case *ast.SwitchStmt:
		st = w.stmt(s.Init, st)
		w.expr(s.Tag, st)
		return joinFlow(w.arms(s.Body, false, st), t.brk)
	case *ast.TypeSwitchStmt:
		st = w.stmt(s.Assign, w.stmt(s.Init, st))
		return joinFlow(w.arms(s.Body, false, st), t.brk)
	case *ast.SelectStmt:
		return joinFlow(w.arms(s.Body, true, st), t.brk)
	}
	return w.stmt(s, st)
}

// loop runs iter — one iteration from a head state, returning the state
// that reaches the next head and the state that leaves through the
// loop's own condition — silently until the head state is a fixpoint,
// then once more from that head with findings on. It returns the state
// after the loop.
func (w *flowWalker[C, V]) loop(t *flowTarget[C, V], head flowState[C, V],
	iter func(flowState[C, V]) (next, exit flowState[C, V])) flowState[C, V] {
	w.quiet++
	for {
		t.brk, t.cont = nil, nil
		next, _ := iter(maps.Clone(head))
		next = joinFlow(next, maps.Clone(head))
		if sameFlow(next, head) {
			break
		}
		head = next
	}
	w.quiet--
	t.brk, t.cont = nil, nil
	_, exit := iter(maps.Clone(head))
	return joinFlow(exit, t.brk)
}

// arms walks the clauses of a switch or select body, each from st, and
// joins the states that leave them. Unless exhaustive (a select, or a
// switch with a default), st may also skip every arm.
func (w *flowWalker[C, V]) arms(body *ast.BlockStmt, exhaustive bool, st flowState[C, V]) flowState[C, V] {
	var out flowState[C, V]
	for _, c := range body.List {
		arm := maps.Clone(st)
		if cc, ok := c.(*ast.CaseClause); ok {
			exhaustive = exhaustive || cc.List == nil
			arm = w.stmts(cc.Body, arm)
		} else {
			cc := c.(*ast.CommClause)
			arm = w.stmts(cc.Body, w.stmt(cc.Comm, arm))
		}
		out = joinFlow(out, arm)
	}
	if !exhaustive {
		out = joinFlow(out, st)
	}
	return out
}

// expr applies the effects of evaluating e to st, in evaluation order.
func (w *flowWalker[C, V]) expr(e ast.Node, st flowState[C, V]) {
	switch e := e.(type) {
	case nil:
	case *ast.FuncLit:
		// Bound for later: it may run at any point after this one.
		w.fn(e.Body, maps.Clone(st))
	case *ast.CallExpr:
		lit, inPlace := ast.Unparen(e.Fun).(*ast.FuncLit)
		if !inPlace {
			w.expr(e.Fun, st)
		}
		for _, a := range e.Args {
			if al, ok := a.(*ast.FuncLit); ok {
				// A callback may run synchronously inside the callee
				// (resilience.Supervisor.Do): a may-executed branch.
				joinFlow(st, w.fn(al.Body, maps.Clone(st)))
				continue
			}
			w.expr(a, st)
		}
		if inPlace {
			if end := w.fn(lit.Body, maps.Clone(st)); end != nil {
				clear(st)
				maps.Copy(st, end)
			}
		}
		w.hooks.call(e, st)
	default:
		forEachChild(e, func(n ast.Node) { w.expr(n, st) })
	}
}

// joinFlow returns a ⊔ b, reusing a's map; nil (no path) is the
// identity.
func joinFlow[C comparable, V flowValue[V]](a, b flowState[C, V]) flowState[C, V] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var absent V
	for c, v := range a {
		if _, ok := b[c]; !ok {
			a[c] = v.join(absent)
		}
	}
	for c, v := range b {
		a[c] = a[c].join(v)
	}
	return a
}

func sameFlow[C comparable, V flowValue[V]](a, b flowState[C, V]) bool {
	if len(a) != len(b) {
		return false
	}
	for c, v := range a {
		if u, ok := b[c]; !ok || !v.same(u) {
			return false
		}
	}
	return true
}
