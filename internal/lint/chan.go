package lint

// chan.go is the channel-protocol layer of the concurrency contract:
// where elsactxflow asks "can this blocking op be cancelled?" and
// elsalocksafe syntactically screens goroutine launches, elsachan
// models every channel as a cell with send/receive/close edges —
// including edges through goroutine closures and struct fields — and
// checks the ownership discipline the pipeline's stage graph is built
// on: exactly one closer, the closer is the owner, nothing sends after
// close, and no goroutine's only exit is a channel op with no
// guaranteed counterpart.
//
// Ownership. The owner of a channel is the goroutine (function body or
// go'd closure) that created it, or one explicitly handed the cell with
// an //elsa:chanowner annotation:
//
//	//elsa:chanowner recCh
//	go func() { defer close(recCh); ... }()   // launch-site transfer
//
//	//elsa:chanowner done
//	func (s *Socket) Close() error { ... close(s.done) ... }  // func-level
//
// The annotation names the channel (its full rooted path, s.done, or
// just the final component, done). A close outside the creating scope
// without one is flagged — the same way an unannotated hotpath
// allocation is — so every ownership transfer is written down where
// reviewers look for it.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// chanOwnerDirective transfers close-ownership of a named channel to a
// goroutine launch site or a whole function.
const chanOwnerDirective = "//elsa:chanowner"

// ChanAnalyzer enforces channel close discipline and flags
// goroutine-leak shapes. elsalocksafe's syntactic "uncancellable
// goroutine" check is its pre-pass (the way elsadeterminism screens
// for elsadetflow), so //nolint:elsalocksafe suppressions carry over.
var ChanAnalyzer = &analysis.Analyzer{
	Name: "elsachan",
	Doc: "model channels as cells with send/recv/close edges and report double-close, " +
		"close-by-non-owner, sends reachable after close, and goroutines whose only exit " +
		"is a blocking channel op with no guaranteed counterpart",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runChan,
}

// chanCell is one channel the analysis tracks inside a function: a
// make(chan) site, a channel-typed parameter, or a channel-valued
// field path (s.done).
type chanCell struct {
	name    string // diagnostic name: rooted path of the expression
	param   bool   // the cell entered through the parameter list
	created bool   // a make(chan) was assigned to it in this function
	// createdGo is the goroutine scope (nil = the function's own body)
	// that created the cell; closes in that scope are by the owner.
	createdGo *ast.FuncLit
	capConst  int64 // constant buffer capacity; -1 unknown, 0 unbuffered

	closes []chanClose
	sends  int // send sites anywhere in the function
	recvs  int // receive + range sites anywhere in the function
}

// chanClose is one close(ch) site.
type chanClose struct {
	pos    token.Pos
	goLit  *ast.FuncLit // innermost go'd closure holding the close, nil = function body
	inLoop bool
}

// chanGoroutine is one go'd function literal and the blocking ops
// observed in it.
type chanGoroutine struct {
	lit    *ast.FuncLit
	owned  []string // channel names from an //elsa:chanowner launch annotation
	hasCtx bool     // the body references a context value (an exit path exists)
	ops    []chanOp
}

// chanOp is one potentially blocking channel operation inside a
// goroutine.
type chanOp struct {
	cell    *chanCell
	pos     token.Pos
	send    bool // send vs receive/range
	guarded bool // inside a select with a ctx.Done() case or a default
}

// chanScope is the per-function analysis state.
type chanScope struct {
	pass     *analysis.Pass
	fn       *ast.FuncDecl
	ownerIdx *lineIndex[[]string] // names of each //elsa:chanowner comment
	cells    cellTable[chanCell]
	gos      []*chanGoroutine
	fnOwned  []string // names from a function-level //elsa:chanowner
}

func runChan(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)
	// elsalocksafe's goroutine screen is the syntactic pre-pass of the
	// leak analysis: one contract, two depths, one suppression.
	rep.sup.aliases = []string{LockSafeAnalyzer.Name}
	// A `go` statement on line L+1 looks up the transfer annotation on
	// line L.
	ownerIdx := indexComments(pass.Fset, pass.Files, func(c *ast.Comment) ([]string, bool) {
		arg, ok := directiveText(c.Text, chanOwnerDirective)
		return splitNames(arg), ok
	})
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		cs := &chanScope{
			pass:     pass,
			fn:       fn,
			ownerIdx: ownerIdx,
			cells:    newCellTable[chanCell](),
		}
		if arg, ok := directiveArg(fn.Doc, chanOwnerDirective); ok {
			cs.fnOwned = splitNames(arg)
		}
		cs.declareParams()
		cs.collect(fn.Body, nil, false)
		cs.checkCloses(rep)
		cs.checkSendAfterClose(rep)
		cs.checkLeaks(rep)
	})
	return nil, nil
}

func splitNames(arg string) []string {
	var out []string
	for _, n := range strings.FieldsFunc(arg, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// nameMatches reports whether an annotation name designates the cell:
// the full rooted path or its final component.
func nameMatches(name string, cell *chanCell) bool {
	if name == cell.name {
		return true
	}
	if i := strings.LastIndexByte(cell.name, '.'); i >= 0 && name == cell.name[i+1:] {
		return true
	}
	return false
}

// declareParams registers channel-typed parameters as cells.
func (cs *chanScope) declareParams() {
	if cs.fn.Type.Params == nil {
		return
	}
	for _, f := range cs.fn.Type.Params.List {
		for _, name := range f.Names {
			obj := cs.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
				continue
			}
			cs.cells.byObj[obj] = &chanCell{name: name.Name, param: true, capConst: -1}
		}
	}
}

// cellFor resolves a channel expression to its cell, creating
// field-path cells on demand. Non-channel and unresolvable expressions
// return nil.
func (cs *chanScope) cellFor(e ast.Expr) *chanCell {
	e = ast.Unparen(e)
	t := cs.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return cs.cells.lookup(cs.pass.TypesInfo, e, func(name string) *chanCell {
			return &chanCell{name: name, capConst: -1}
		})
	}
	return nil
}

// collect walks a statement tree recording creations, closes, sends,
// receives and goroutine launches. goLit is the innermost go'd closure
// (nil = the function's own goroutine); inLoop marks enclosing
// for/range bodies within the current goroutine scope.
func (cs *chanScope) collect(n ast.Node, goLit *ast.FuncLit, inLoop bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			g := &chanGoroutine{lit: lit, owned: cs.goAnnotations(n)}
			g.hasCtx = referencesContext(cs.pass.TypesInfo, lit.Body)
			cs.gos = append(cs.gos, g)
			for _, arg := range n.Call.Args {
				cs.collect(arg, goLit, inLoop)
			}
			cs.collect(lit.Body, lit, false)
			return
		}
		cs.collect(n.Call, goLit, inLoop)
		return
	case *ast.ForStmt:
		cs.collect(n.Init, goLit, inLoop)
		if n.Cond != nil {
			cs.collect(n.Cond, goLit, inLoop)
		}
		cs.collect(n.Post, goLit, inLoop)
		cs.collect(n.Body, goLit, true)
		return
	case *ast.RangeStmt:
		if cell := cs.cellFor(n.X); cell != nil {
			cell.recvs++
			cs.recordOp(goLit, chanOp{cell: cell, pos: n.Pos(), send: false})
		} else {
			cs.collect(n.X, goLit, inLoop)
		}
		cs.collect(n.Body, goLit, true)
		return
	case *ast.SelectStmt:
		guarded := selectGuarded(cs.pass.TypesInfo, n)
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			cs.collectComm(cc.Comm, goLit, inLoop, guarded)
			for _, s := range cc.Body {
				cs.collect(s, goLit, inLoop)
			}
		}
		return
	case *ast.SendStmt:
		if cell := cs.cellFor(n.Chan); cell != nil {
			cell.sends++
			cs.recordOp(goLit, chanOp{cell: cell, pos: n.Pos(), send: true})
		}
		cs.collect(n.Value, goLit, inLoop)
		return
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			if cell := cs.cellFor(n.X); cell != nil {
				cell.recvs++
				cs.recordOp(goLit, chanOp{cell: cell, pos: n.Pos(), send: false})
				return
			}
		}
		cs.collect(n.X, goLit, inLoop)
		return
	case *ast.AssignStmt:
		cs.collectAssign(n, goLit, inLoop)
		return
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						cs.bindCreation(name, vs.Values[i], goLit)
						cs.collect(vs.Values[i], goLit, inLoop)
					}
				}
			}
		}
		return
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := cs.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(n.Args) == 1 {
				cell := cs.cellFor(n.Args[0])
				if cell == nil {
					// A close the model cannot attribute (call result,
					// map element): out of scope for the discipline.
					return
				}
				cell.closes = append(cell.closes, chanClose{pos: n.Pos(), goLit: goLit, inLoop: inLoop})
				return
			}
		}
		for _, a := range n.Args {
			cs.collect(a, goLit, inLoop)
		}
		cs.collect(n.Fun, goLit, inLoop)
		return
	case *ast.FuncLit:
		// A non-go'd literal (callback, deferred closure) runs within
		// the creating goroutine's scope for ownership purposes.
		cs.collect(n.Body, goLit, inLoop)
		return
	}
	forEachChild(n, func(m ast.Node) { cs.collect(m, goLit, inLoop) })
}

// collectComm records the channel op a select comm clause performs,
// with the select's guard verdict attached.
func (cs *chanScope) collectComm(comm ast.Stmt, goLit *ast.FuncLit, inLoop, guarded bool) {
	switch comm := comm.(type) {
	case nil:
	case *ast.SendStmt:
		if cell := cs.cellFor(comm.Chan); cell != nil {
			cell.sends++
			cs.recordOp(goLit, chanOp{cell: cell, pos: comm.Pos(), send: true, guarded: guarded})
		}
		cs.collect(comm.Value, goLit, inLoop)
	case *ast.ExprStmt:
		cs.collectCommRecv(comm.X, goLit, guarded)
	case *ast.AssignStmt:
		for _, r := range comm.Rhs {
			cs.collectCommRecv(r, goLit, guarded)
		}
	}
}

func (cs *chanScope) collectCommRecv(e ast.Expr, goLit *ast.FuncLit, guarded bool) {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return
	}
	if cell := cs.cellFor(u.X); cell != nil {
		cell.recvs++
		cs.recordOp(goLit, chanOp{cell: cell, pos: u.Pos(), send: false, guarded: guarded})
	}
}

func (cs *chanScope) recordOp(goLit *ast.FuncLit, op chanOp) {
	if goLit == nil {
		return
	}
	for _, g := range cs.gos {
		if g.lit == goLit {
			g.ops = append(g.ops, op)
			return
		}
	}
}

// collectAssign wires `ch := make(chan T, n)` and `s.ch = make(...)`
// creations, then walks the assignment normally.
func (cs *chanScope) collectAssign(a *ast.AssignStmt, goLit *ast.FuncLit, inLoop bool) {
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			cs.bindCreation(a.Lhs[i], a.Rhs[i], goLit)
		}
	}
	for _, r := range a.Rhs {
		cs.collect(r, goLit, inLoop)
	}
	for _, l := range a.Lhs {
		// Receives on the RHS were walked above; LHS index exprs etc.
		if _, ok := l.(*ast.Ident); !ok {
			cs.collect(l, goLit, inLoop)
		}
	}
}

// bindCreation marks lhs's cell created when rhs is a make(chan) call.
func (cs *chanScope) bindCreation(lhs, rhs ast.Expr, goLit *ast.FuncLit) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := cs.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return
	}
	if _, ok := cs.pass.TypesInfo.TypeOf(call).Underlying().(*types.Chan); !ok {
		return
	}
	cell := cs.cellFor(lhs)
	if cell == nil {
		return
	}
	cell.created = true
	cell.createdGo = goLit
	cell.capConst = 0
	if len(call.Args) >= 2 {
		cell.capConst = -1
		if tv, ok := cs.pass.TypesInfo.Types[call.Args[1]]; ok {
			if v, ok := constInt64(tv); ok {
				cell.capConst = v
			}
		}
	}
}

// goAnnotations resolves the //elsa:chanowner names annotating a go
// statement (a directive on the statement's own line or the line
// above).
func (cs *chanScope) goAnnotations(g *ast.GoStmt) []string {
	var out []string
	for _, names := range cs.ownerIdx.near(g.Pos()) {
		out = append(out, names...)
	}
	return out
}

// referencesContext reports whether a body mentions any context-typed
// value — an exit path via cancellation exists.
func referencesContext(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// ---- checks ----

// checkCloses enforces single-close and ownership.
func (cs *chanScope) checkCloses(rep *reporter) {
	for _, cell := range cs.allCellsSorted() {
		if len(cell.closes) == 0 {
			continue
		}
		first := cell.closes[0]
		for _, c := range cell.closes {
			if c.pos < first.pos {
				first = c
			}
		}
		for _, c := range cell.closes {
			if c.inLoop {
				rep.reportf(c.pos, "chan: close of %s inside a loop; a second iteration double-closes and panics", cell.name)
			}
			if len(cell.closes) > 1 && c.pos != first.pos {
				rep.reportf(c.pos, "chan: %s is closed more than once (first close at line %d); a second close panics",
					cell.name, cs.pass.Fset.Position(first.pos).Line)
			}
			cs.checkCloseOwner(rep, cell, c)
		}
	}
}

// checkCloseOwner flags closes outside the owning scope.
func (cs *chanScope) checkCloseOwner(rep *reporter, cell *chanCell, c chanClose) {
	// Function-level transfer covers every scope in the function.
	for _, n := range cs.fnOwned {
		if nameMatches(n, cell) {
			return
		}
	}
	if c.goLit != nil {
		// Inside a go'd closure: either the goroutine created the cell
		// itself or its launch site carries the transfer annotation.
		if cell.created && cell.createdGo == c.goLit {
			return
		}
		for _, g := range cs.gos {
			if g.lit != c.goLit {
				continue
			}
			for _, n := range g.owned {
				if nameMatches(n, cell) {
					return
				}
			}
		}
		rep.reportf(c.pos, "chan: goroutine closes %s it does not own; annotate the launch site //elsa:chanowner %s "+
			"to record the ownership transfer", cell.name, cell.name)
		return
	}
	// Function body: the creator closes freely; parameters and fields
	// need the transfer written down.
	if cell.created && cell.createdGo == nil {
		return
	}
	switch {
	case cell.param:
		rep.reportf(c.pos, "chan: close of channel parameter %s by a non-owner; only the creating side closes — "+
			"annotate the function //elsa:chanowner %s if ownership is transferred in", cell.name, cell.name)
	default:
		rep.reportf(c.pos, "chan: close of %s outside its creating scope; annotate the function //elsa:chanowner %s "+
			"to record which single path owns the close", cell.name, cell.name)
	}
}

// checkSendAfterClose walks each goroutine scope in program order
// flagging sends that can execute after a close of the same cell.
func (cs *chanScope) checkSendAfterClose(rep *reporter) {
	closed := make(map[*chanCell]token.Pos)
	cs.orderWalk(rep, cs.fn.Body.List, nil, closed)
}

// orderWalk is a conservative sequential interpreter: it tracks
// may-closed cells through a statement list, forking at branches
// (union merge) and walking loop bodies twice so an iteration-two send
// sees an iteration-one close.
func (cs *chanScope) orderWalk(rep *reporter, stmts []ast.Stmt, goLit *ast.FuncLit, closed map[*chanCell]token.Pos) {
	for _, s := range stmts {
		cs.orderStmt(rep, s, goLit, closed)
	}
}

func copyClosed(closed map[*chanCell]token.Pos) map[*chanCell]token.Pos {
	out := make(map[*chanCell]token.Pos, len(closed))
	for k, v := range closed {
		out[k] = v
	}
	return out
}

func mergeClosed(dst, src map[*chanCell]token.Pos) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

func (cs *chanScope) orderStmt(rep *reporter, s ast.Stmt, goLit *ast.FuncLit, closed map[*chanCell]token.Pos) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		cs.orderWalk(rep, s.List, goLit, closed)
	case *ast.ExprStmt:
		cs.orderExpr(rep, s.X, goLit, closed)
	case *ast.SendStmt:
		cs.orderSend(rep, s, closed)
		cs.orderExpr(rep, s.Value, goLit, closed)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			cs.orderExpr(rep, r, goLit, closed)
		}
	case *ast.DeferStmt:
		// Deferred closes run at exit: no ordering edge to later sends.
		// A deferred closure's own sends are checked against the state
		// at registration (conservative under-approximation).
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			cs.orderWalk(rep, lit.Body.List, goLit, copyClosed(closed))
		}
	case *ast.GoStmt:
		// The goroutine observes closes that happened before the spawn;
		// its own closes race the parent and are not merged back.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			cs.orderWalk(rep, lit.Body.List, lit, copyClosed(closed))
		}
	case *ast.IfStmt:
		cs.orderStmt(rep, s.Init, goLit, closed)
		then := copyClosed(closed)
		cs.orderStmt(rep, s.Body, goLit, then)
		if s.Else != nil {
			els := copyClosed(closed)
			cs.orderStmt(rep, s.Else, goLit, els)
			mergeClosed(closed, els)
		}
		mergeClosed(closed, then)
	case *ast.ForStmt:
		cs.orderStmt(rep, s.Init, goLit, closed)
		body := copyClosed(closed)
		cs.orderStmt(rep, s.Body, goLit, body)
		cs.orderStmt(rep, s.Post, goLit, body)
		cs.orderStmt(rep, s.Body, goLit, body)
		mergeClosed(closed, body)
	case *ast.RangeStmt:
		body := copyClosed(closed)
		cs.orderStmt(rep, s.Body, goLit, body)
		cs.orderStmt(rep, s.Body, goLit, body)
		mergeClosed(closed, body)
	case *ast.SelectStmt:
		merged := copyClosed(closed)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			arm := copyClosed(closed)
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				cs.orderSend(rep, send, arm)
			}
			for _, st := range cc.Body {
				cs.orderStmt(rep, st, goLit, arm)
			}
			mergeClosed(merged, arm)
		}
		mergeClosed(closed, merged)
	case *ast.SwitchStmt:
		cs.orderStmt(rep, s.Init, goLit, closed)
		merged := copyClosed(closed)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				arm := copyClosed(closed)
				for _, st := range cc.Body {
					cs.orderStmt(rep, st, goLit, arm)
				}
				mergeClosed(merged, arm)
			}
		}
		mergeClosed(closed, merged)
	case *ast.TypeSwitchStmt:
		cs.orderStmt(rep, s.Init, goLit, closed)
		cs.orderStmt(rep, s.Body, goLit, closed)
	case *ast.LabeledStmt:
		cs.orderStmt(rep, s.Stmt, goLit, closed)
	case *ast.CaseClause:
		for _, st := range s.Body {
			cs.orderStmt(rep, st, goLit, closed)
		}
	}
}

func (cs *chanScope) orderSend(rep *reporter, s *ast.SendStmt, closed map[*chanCell]token.Pos) {
	cell := cs.cellFor(s.Chan)
	if cell == nil {
		return
	}
	if pos, ok := closed[cell]; ok {
		rep.reportf(s.Pos(), "chan: send on %s is reachable after its close at line %d; a send on a closed channel panics",
			cell.name, cs.pass.Fset.Position(pos).Line)
	}
}

// orderExpr notices close(...) calls (advancing the closed state) and
// descends into immediately invoked literals.
func (cs *chanScope) orderExpr(rep *reporter, e ast.Expr, goLit *ast.FuncLit, closed map[*chanCell]token.Pos) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := cs.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(call.Args) == 1 {
			if cell := cs.cellFor(call.Args[0]); cell != nil {
				if _, already := closed[cell]; !already {
					closed[cell] = call.Pos()
				}
			}
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		cs.orderWalk(rep, lit.Body.List, goLit, closed)
	}
}

// checkLeaks flags goroutines whose blocking channel ops have no
// guaranteed counterpart and no cancellation path. Test files are
// exempt: their goroutines are joined by the test harness, and the
// leak shapes that matter are the serving-path ones.
func (cs *chanScope) checkLeaks(rep *reporter) {
	if inTestFile(cs.pass.Fset, cs.fn.Pos()) {
		return
	}
	for _, g := range cs.gos {
		if g.hasCtx {
			continue // cancellation path exists; elsactxflow audits its use
		}
		for _, op := range g.ops {
			if op.guarded || op.cell == nil {
				continue
			}
			cell := op.cell
			if op.send {
				// A send is covered by a constant-capacity buffer or a
				// receiver somewhere else in the function.
				if cell.capConst > 0 || cell.recvs > 0 {
					continue
				}
				rep.reportf(op.pos, "chan: goroutine's only exit is a blocking send on %s with no guaranteed counterpart "+
					"and no ctx.Done() select; it can leak", cell.name)
			} else {
				// A receive is released by a close or fed by a sender.
				if len(cell.closes) > 0 || cell.sends > 0 {
					continue
				}
				rep.reportf(op.pos, "chan: goroutine's only exit is a blocking receive from %s with no close, sender, "+
					"or ctx.Done() select in scope; it can leak", cell.name)
			}
		}
	}
}

// allCellsSorted returns every tracked cell in stable order — map
// iteration is not — by name, then first close position.
func (cs *chanScope) allCellsSorted() []*chanCell {
	var out []*chanCell
	for _, c := range cs.cells.byObj {
		out = append(out, c)
	}
	for _, c := range cs.cells.byPath {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return chanCellLess(out[i], out[j]) })
	return out
}

func chanCellLess(a, b *chanCell) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	ap, bp := token.NoPos, token.NoPos
	if len(a.closes) > 0 {
		ap = a.closes[0].pos
	}
	if len(b.closes) > 0 {
		bp = b.closes[0].pos
	}
	return ap < bp
}
