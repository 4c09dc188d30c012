package lint

// chan.go is the channel-protocol layer of the concurrency contract:
// where elsactxflow asks "can this blocking op be cancelled?", elsachan
// models every channel as a cell with send/receive/close edges —
// including edges through goroutine closures and struct fields — and
// checks the ownership discipline the pipeline's stage graph is built
// on: exactly one closer, the closer is the owner, nothing sends after
// close (on flow.go's walker), and no goroutine's only exit is a
// channel op with no guaranteed counterpart. The goroutine collection
// also holds launches to their lifetime: no WaitGroup.Add inside the
// goroutine it guards, and no goroutine in a cancellable function
// without a ctx reference or a WaitGroup join.
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
// goroutine-leak and goroutine-lifetime shapes.
var ChanAnalyzer = &analysis.Analyzer{
	Name: "elsachan",
	Doc: "model channels as cells with send/recv/close edges and report double-close, " +
		"close-by-non-owner, sends reachable after close, goroutines whose only exit " +
		"is a blocking channel op with no guaranteed counterpart, WaitGroup.Add inside the " +
		"goroutine it guards, and goroutines in cancellable functions with no cancellation or join path",
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
	pos    token.Pos // the go statement
	owned  []string  // channel names from an //elsa:chanowner launch annotation
	hasCtx bool      // the body references a context value (an exit path exists)
	joins  bool      // the body calls WaitGroup.Done
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
	adds     []token.Pos // WaitGroup.Add calls on a WaitGroup a goroutine captures
	fnOwned  []string    // names from a function-level //elsa:chanowner
	w        *flowWalker[*chanCell, closedAt]
}

func runChan(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)
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
		cs.checkLifetimes(rep)
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
			g := &chanGoroutine{lit: lit, pos: n.Pos(), owned: cs.goAnnotations(n)}
			g.hasCtx, g.joins = goroutineExits(cs.pass.TypesInfo, lit.Body)
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
		if cell := cs.closeTarget(n); cell != nil {
			cell.closes = append(cell.closes, chanClose{pos: n.Pos(), goLit: goLit, inLoop: inLoop})
			return
		}
		if name, wg := waitGroupCall(cs.pass.TypesInfo, n); name == "Add" && goLit != nil {
			// A selector like s.wg is rooted in captured state or a
			// parameter either way: treated as outside.
			if id, ok := ast.Unparen(wg).(*ast.Ident); !ok || declaredOutside(cs.pass.TypesInfo, id, goLit) {
				cs.adds = append(cs.adds, n.Pos())
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

// closeTarget returns the cell a close(ch) call closes: nil for any
// other call, and for a close the model cannot attribute (call result,
// map element), which is out of scope for the discipline.
func (cs *chanScope) closeTarget(call *ast.CallExpr) *chanCell {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	if b, ok := cs.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	return cs.cellFor(call.Args[0])
}

// waitGroupCall returns the method name and receiver of a
// sync.WaitGroup method call, "" for any other call.
func waitGroupCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !strings.Contains(recv.Type().String(), "WaitGroup") {
		return "", nil
	}
	return fn.Name(), sel.X
}

// goroutineExits reports whether a goroutine body has a cancellation
// path (it mentions a context-typed value) and whether it joins a
// WaitGroup (it calls Done).
func goroutineExits(info *types.Info, body ast.Node) (hasCtx, joins bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				hasCtx = true
			}
		case *ast.CallExpr:
			if name, _ := waitGroupCall(info, n); name == "Done" {
				joins = true
			}
		}
		return true
	})
	return hasCtx, joins
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

// closedAt is a channel cell's may-closed value: the first close that
// reaches the point, NoPos on paths with none.
type closedAt token.Pos

func (a closedAt) join(b closedAt) closedAt {
	if a == 0 {
		return b
	}
	return a
}

func (a closedAt) same(b closedAt) bool { return (a == 0) == (b == 0) }

// checkSendAfterClose flags sends that can execute after a close of the
// same cell. A goroutine observes the closes made before it is
// launched; its own closes race the launcher and are not carried back.
func (cs *chanScope) checkSendAfterClose(rep *reporter) {
	cs.w = &flowWalker[*chanCell, closedAt]{hooks: cs, rep: rep}
	cs.w.fn(cs.fn.Body, make(flowState[*chanCell, closedAt]))
}

// call records the first close(ch) of a tracked cell on this path.
func (cs *chanScope) call(call *ast.CallExpr, closed flowState[*chanCell, closedAt]) {
	if cell := cs.closeTarget(call); cell != nil {
		if _, already := closed[cell]; !already {
			closed[cell] = closedAt(call.Pos())
		}
	}
}

// bind reopens a rebound channel variable: it names another channel.
func (cs *chanScope) bind(lhs, _ ast.Expr, closed flowState[*chanCell, closedAt]) {
	if cell := cs.cellFor(lhs); cell != nil {
		delete(closed, cell)
	}
}

func (cs *chanScope) send(s *ast.SendStmt, closed flowState[*chanCell, closedAt]) {
	cell := cs.cellFor(s.Chan)
	if pos, ok := closed[cell]; ok {
		cs.w.reportf(s.Pos(), "chan: send on %s is reachable after its close at line %d; a send on a closed channel panics",
			cell.name, cs.pass.Fset.Position(token.Pos(pos)).Line)
	}
}

// checkLifetimes flags WaitGroup.Add inside the goroutine it guards —
// the Wait-before-Add race; Add must happen before `go` — and, in a
// cancellable (ctx-taking) function, goroutines with neither a ctx
// reference nor a WaitGroup join: the leak Run's "all stage goroutines
// are joined" contract forbids.
func (cs *chanScope) checkLifetimes(rep *reporter) {
	for _, pos := range cs.adds {
		rep.reportf(pos, "locksafe: WaitGroup.Add inside the goroutine it guards races Wait; call Add before the go statement")
	}
	if !hasCtxParam(cs.pass.TypesInfo, cs.fn) {
		return
	}
	for _, g := range cs.gos {
		if !g.hasCtx && !g.joins {
			rep.reportf(g.pos,
				"locksafe: goroutine in a cancellable function has neither a ctx reference nor a WaitGroup join; it can leak past cancellation")
		}
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
