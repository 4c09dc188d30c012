package lint

// lockorder.go builds the interprocedural lock-acquisition graph:
// which locks are already held when each lock is acquired, including
// through calls — a call made under s.mu inherits s.mu into every
// acquisition the callee performs. Any cycle in that order graph is a
// potential deadlock: two goroutines entering the cycle from different
// nodes block each other forever, and unlike a race it reproduces only
// under exactly the wrong interleaving.
//
// The analysis runs per package under go vet's facts pipeline. Each
// function's summary — the locks it may acquire and the order edges its
// body creates — is exported as a LockOrderFact object fact, so a
// caller in an importing package can extend held-sets across the
// package boundary exactly the way AtomicFact carries a field's
// access mode. The package's merged graph (its own edges plus
// every imported LockGraphFact) is re-exported cumulatively as a
// LockGraphFact package fact; a cycle is reported once, in the first
// package that both completes it and contains one of its edges.
//
// Lock identity is by static role, not instance: a package-level
// mutex is "pkgpath.name", a struct field is "pkgpath.Type.field"
// (all instances of the type share the ordering discipline), and a
// function-local mutex is "pkgpath.func.name".

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// LockOrderAnalyzer reports cycles in the interprocedural
// lock-acquisition order graph.
var LockOrderAnalyzer = &analysis.Analyzer{
	Name: "elsalockorder",
	Doc: "build the interprocedural lock-acquisition graph (locks held at each acquire, " +
		"propagated through calls via facts) and report any cycle as a potential deadlock " +
		"with the full acquisition chain",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*LockOrderFact)(nil), (*LockGraphFact)(nil)},
	Run:       runLockOrder,
}

// LockEdge records that From was held when To was acquired, inside the
// function named Via.
type LockEdge struct {
	From, To, Via string
}

// LockOrderFact is a function's lock summary: every lock the function
// (transitively) may acquire, and the order edges its body creates.
type LockOrderFact struct {
	Acquires []string
	Edges    []LockEdge
}

func (*LockOrderFact) AFact() {}
func (f *LockOrderFact) String() string {
	return "lockorder(acquires " + strings.Join(f.Acquires, ",") + ")"
}

// LockGraphFact is a package's merged acquisition graph: its own edges
// plus everything inherited from its imports, re-exported cumulatively.
type LockGraphFact struct {
	Edges []LockEdge
}

func (*LockGraphFact) AFact() {}
func (f *LockGraphFact) String() string {
	return "lockgraph(" + strconv.Itoa(len(f.Edges)) + " edges)"
}

// lockEvent is one ordered happening in a function body.
type lockEvent struct {
	kind   int // one of the evXxx constants
	lock   string
	callee *types.Func
	pos    token.Pos
}

const (
	evAcquire = iota
	evRelease
	evCall
	evGoStart // a go'd closure begins: fresh (empty) held set
	evGoEnd
)

// lockSummary is the fixpoint state for one function.
type lockSummary struct {
	acquires map[string]bool
	edges    map[[2]string]localEdge
}

type localEdge struct {
	via string
	pos token.Pos
}

func newLockSummary() *lockSummary {
	return &lockSummary{acquires: make(map[string]bool), edges: make(map[[2]string]localEdge)}
}

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)

	// 1. Collect each function's event trace in source order.
	type fnInfo struct {
		obj    *types.Func
		name   string
		events []lockEvent
	}
	var fns []fnInfo
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if !ok {
			return
		}
		lc := &lockCollector{pass: pass, fnName: fn.Name.Name}
		lc.walkStmts(fn.Body.List)
		fns = append(fns, fnInfo{obj: obj, name: pass.Pkg.Name() + "." + fn.Name.Name, events: lc.events})
	})

	// 2. Fixpoint over in-package summaries: replaying a trace with
	// richer callee summaries only grows a summary, so iteration
	// terminates.
	sums := make(map[*types.Func]*lockSummary, len(fns))
	for _, f := range fns {
		sums[f.obj] = newLockSummary()
	}
	calleeSummary := func(callee *types.Func) *lockSummary {
		if s, ok := sums[callee]; ok {
			return s
		}
		var fact LockOrderFact
		if pass.ImportObjectFact(callee, &fact) {
			s := newLockSummary()
			for _, a := range fact.Acquires {
				s.acquires[a] = true
			}
			return s
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if replayLockEvents(f.events, f.name, sums[f.obj], calleeSummary) {
				changed = true
			}
		}
	}

	// 3. Merge: local function edges (with positions) plus every
	// imported package graph (positionless).
	merged := make(map[[2]string]localEdge)
	addEdge := func(k [2]string, e localEdge) {
		if cur, ok := merged[k]; !ok || (!cur.pos.IsValid() && e.pos.IsValid()) ||
			(cur.pos.IsValid() && e.pos.IsValid() && e.pos < cur.pos) {
			merged[k] = e
		}
	}
	for _, f := range fns {
		for k, e := range sums[f.obj].edges {
			addEdge(k, e)
		}
	}
	imports := append([]*types.Package(nil), pass.Pkg.Imports()...)
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		var g LockGraphFact
		if pass.ImportPackageFact(imp, &g) {
			for _, e := range g.Edges {
				addEdge([2]string{e.From, e.To}, localEdge{via: e.Via})
			}
		}
	}

	// 4. Report cycles with at least one local edge.
	reportLockCycles(pass, rep, merged)

	// 5. Export: per-function facts and the cumulative package graph.
	for _, f := range fns {
		s := sums[f.obj]
		if len(s.acquires) == 0 && len(s.edges) == 0 {
			continue
		}
		pass.ExportObjectFact(f.obj, summaryFact(s))
	}
	if len(merged) > 0 {
		pass.ExportPackageFact(&LockGraphFact{Edges: sortedEdges(merged)})
	}
	return nil, nil
}

func summaryFact(s *lockSummary) *LockOrderFact {
	f := &LockOrderFact{Edges: sortedEdges(s.edges)}
	for a := range s.acquires {
		f.Acquires = append(f.Acquires, a)
	}
	sort.Strings(f.Acquires)
	return f
}

// sortedEdges lists an edge map in (From, To) order, the fact payloads'
// byte-stable form.
func sortedEdges(edges map[[2]string]localEdge) []LockEdge {
	var out []LockEdge
	for k, e := range edges {
		out = append(out, LockEdge{From: k[0], To: k[1], Via: e.via})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// replayLockEvents runs one event trace against the current summaries,
// reporting whether the function's own summary grew.
func replayLockEvents(events []lockEvent, fnName string, sum *lockSummary,
	calleeSummary func(*types.Func) *lockSummary) bool {
	grew := false
	acquire := func(l string) {
		if !sum.acquires[l] {
			sum.acquires[l] = true
			grew = true
		}
	}
	edge := func(from, to, via string, pos token.Pos) {
		k := [2]string{from, to}
		if _, ok := sum.edges[k]; !ok {
			sum.edges[k] = localEdge{via: via, pos: pos}
			grew = true
		}
	}
	var held []string
	var stack [][]string
	for _, ev := range events {
		switch ev.kind {
		case evAcquire:
			for _, h := range held {
				edge(h, ev.lock, fnName, ev.pos)
			}
			acquire(ev.lock)
			held = append(held, ev.lock)
		case evRelease:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == ev.lock {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evCall:
			cs := calleeSummary(ev.callee)
			if cs == nil {
				continue
			}
			callees := make([]string, 0, len(cs.acquires))
			for a := range cs.acquires {
				callees = append(callees, a)
			}
			sort.Strings(callees)
			via := fnName + " -> " + calleeName(ev.callee)
			for _, h := range held {
				for _, a := range callees {
					edge(h, a, via, ev.pos)
				}
			}
			for _, a := range callees {
				acquire(a)
			}
		case evGoStart:
			stack = append(stack, held)
			held = nil
		case evGoEnd:
			held = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return grew
}

func calleeName(f *types.Func) string {
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// lockCollector extracts the ordered lock events from one function body.
type lockCollector struct {
	pass   *analysis.Pass
	fnName string
	events []lockEvent
}

func (lc *lockCollector) emit(e lockEvent) { lc.events = append(lc.events, e) }

func (lc *lockCollector) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		lc.walk(s)
	}
}

// walk records events in source order. Branch bodies are walked
// sequentially (conservative: a lock taken in one arm is considered
// held after the if), which matches the suite's bias toward flagging
// ambiguous order over missing a deadlock.
func (lc *lockCollector) walk(n ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.DeferStmt:
		// A deferred unlock holds the lock to function end: no release
		// event. Other deferred calls are handled in place.
		if lc.syncMethod(n.Call) == "unlock" {
			return
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			// Deferred closure that only unlocks is the common pattern.
			lc.walkDeferLit(lit)
			return
		}
		lc.walk(n.Call)
		return
	case *ast.GoStmt:
		lc.emit(lockEvent{kind: evGoStart, pos: n.Pos()})
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			lc.walkStmts(lit.Body.List)
		} else {
			lc.walk(n.Call)
		}
		lc.emit(lockEvent{kind: evGoEnd, pos: n.Pos()})
		return
	case *ast.CallExpr:
		for _, a := range n.Args {
			lc.walk(a)
		}
		switch lc.syncMethod(n) {
		case "lock":
			if id := lc.lockID(recvExpr(n)); id != "" {
				lc.emit(lockEvent{kind: evAcquire, lock: id, pos: n.Pos()})
			}
			return
		case "unlock":
			if id := lc.lockID(recvExpr(n)); id != "" {
				lc.emit(lockEvent{kind: evRelease, lock: id, pos: n.Pos()})
			}
			return
		}
		if callee := calleeFunc(lc.pass.TypesInfo, n); callee != nil {
			lc.emit(lockEvent{kind: evCall, callee: callee, pos: n.Pos()})
		}
		if lit, ok := n.Fun.(*ast.FuncLit); ok {
			lc.walkStmts(lit.Body.List)
		}
		return
	case *ast.FuncLit:
		// Non-invoked literal: its body runs some time while the current
		// locks may be held; walk inline (conservative).
		lc.walkStmts(n.Body.List)
		return
	}
	forEachChild(n, lc.walk)
}

// walkDeferLit walks a deferred closure, dropping its unlock events
// (they run at exit) but keeping acquires and calls.
func (lc *lockCollector) walkDeferLit(lit *ast.FuncLit) {
	inner := &lockCollector{pass: lc.pass, fnName: lc.fnName}
	inner.walkStmts(lit.Body.List)
	for _, ev := range inner.events {
		if ev.kind == evRelease {
			continue
		}
		lc.emit(ev)
	}
}

// syncMethod classifies a call as "lock" (Lock/RLock), "unlock"
// (Unlock/RUnlock), or "" when it is not a sync-package method.
// TryLock never blocks and is ignored.
func (lc *lockCollector) syncMethod(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := lc.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return "lock"
	case "Unlock", "RUnlock":
		return "unlock"
	}
	return ""
}

// recvExpr returns the receiver expression of a method call.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// calleeFunc resolves a call's static callee, nil for builtins,
// conversions, and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// lockID names a lock by its static role. "" means the expression is
// not attributable (a map element, a call result) and the acquire is
// skipped rather than misattributed.
func (lc *lockCollector) lockID(recv ast.Expr) string {
	if recv == nil {
		return ""
	}
	recv = ast.Unparen(recv)
	info := lc.pass.TypesInfo
	switch x := recv.(type) {
	case *ast.Ident:
		obj := objOf(info, x)
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		// A receiver or local of a named type embedding the primitive:
		// identity is the type (all instances share the discipline).
		if n := namedTypeOf(v.Type()); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name()
		}
		return lc.pass.Pkg.Path() + "." + lc.fnName + "." + v.Name()
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + x.Sel.Name
			}
		}
		if sel, ok := info.Selections[x]; ok {
			if n := namedTypeOf(sel.Recv()); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + x.Sel.Name
			}
		}
		if root := rootString(x); root != "" {
			return lc.pass.Pkg.Path() + "." + lc.fnName + "." + root
		}
	}
	return ""
}

// namedTypeOf unwraps pointers to the named type underneath, nil when
// there is none.
func namedTypeOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// ---- cycle detection ----

// reportLockCycles finds strongly connected components in the merged
// graph and reports each cycle that owns a local edge, once, at its
// earliest local position.
func reportLockCycles(pass *analysis.Pass, rep *reporter, merged map[[2]string]localEdge) {
	nodes := make(map[string]bool)
	succ := make(map[string][]string)
	for k := range merged {
		nodes[k[0]], nodes[k[1]] = true, true
		succ[k[0]] = append(succ[k[0]], k[1])
	}
	for _, s := range succ {
		sort.Strings(s)
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, scc := range tarjanSCC(names, succ) {
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		cyclic := len(scc) > 1
		if !cyclic {
			if _, self := merged[[2]string{scc[0], scc[0]}]; self {
				cyclic = true
			}
		}
		if !cyclic {
			continue
		}
		// The reporting anchor: the earliest local edge inside the SCC.
		var anchor [2]string
		var anchorPos token.Pos
		for _, from := range scc {
			for _, to := range succ[from] {
				if !inSCC[to] {
					continue
				}
				e := merged[[2]string{from, to}]
				if e.pos.IsValid() && (!anchorPos.IsValid() || e.pos < anchorPos) {
					anchor, anchorPos = [2]string{from, to}, e.pos
				}
			}
		}
		if !anchorPos.IsValid() {
			continue // all edges imported: the defining package reported it
		}
		if len(scc) == 1 {
			e := merged[anchor]
			rep.reportf(anchorPos, "lockorder: %s acquired while already held (in %s); re-locking a non-reentrant mutex self-deadlocks",
				lockDisplay(anchor[0]), e.via)
			continue
		}
		chain := cycleChain(anchor, inSCC, succ, merged)
		rep.reportf(anchorPos, "lockorder: lock-order cycle %s; goroutines acquiring these locks in different orders can deadlock", chain)
	}
}

// cycleChain renders the acquisition chain anchor.From -> anchor.To ->
// ... -> anchor.From with the function each edge was observed in.
func cycleChain(anchor [2]string, inSCC map[string]bool, succ map[string][]string, merged map[[2]string]localEdge) string {
	path := []string{anchor[0], anchor[1]}
	seen := map[string]bool{anchor[1]: true}
	cur := anchor[1]
	for cur != anchor[0] {
		advanced := false
		for _, next := range succ[cur] {
			if !inSCC[next] {
				continue
			}
			if next == anchor[0] {
				cur = next
				path = append(path, next)
				advanced = true
				break
			}
			if !seen[next] {
				seen[next] = true
				cur = next
				path = append(path, next)
				advanced = true
				break
			}
		}
		if !advanced {
			break // defensive: SCC guarantees a way back, but never loop forever
		}
	}
	var b strings.Builder
	b.WriteString(lockDisplay(path[0]))
	for i := 1; i < len(path); i++ {
		e := merged[[2]string{path[i-1], path[i]}]
		b.WriteString(" -> ")
		b.WriteString(lockDisplay(path[i]))
		if e.via != "" {
			b.WriteString(" (in ")
			b.WriteString(e.via)
			b.WriteString(")")
		}
	}
	return b.String()
}

// lockDisplay shortens a lock's identity for diagnostics: the full
// import path prefix collapses to its last element.
func lockDisplay(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// tarjanSCC returns the strongly connected components of the graph in
// deterministic order (nodes and successor lists pre-sorted).
func tarjanSCC(nodes []string, succ map[string][]string) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
