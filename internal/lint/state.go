package lint

// state.go is the typestate layer of the analysis stack: where
// elsachan verifies the one hard-coded protocol every channel shares
// (closed is terminal, sends must precede it), elsastate verifies
// protocols the code declares for itself. A type states its lifecycle:
//
//	//elsa:state open closed
//	type Session struct{ ... }
//
// and its methods declare how calls move values through it:
//
//	//elsa:transition open->closed closed->closed
//	func (s *Session) Close() *Result { ... }
//
//	//elsa:requires open
//	func (s *Session) Feed(rec Record) ([]Prediction, error) { ... }
//
// The checker is a may-state abstract interpreter on flow.go's walker:
// per function, each tracked value (ident or rooted field path)
// carries the set of states it may be in; branches join, loops run to
// a fixpoint, and a //elsa:requires violated by any member of the set,
// or a //elsa:transition with no edge from a member, is reported.
//
// Transfer choices, tuned so the unmutated repo proves clean:
//
//   - Values start unconstrained: a parameter or field may arrive in
//     any state, and the checker only enforces ordering established
//     *within* the function (exactly how elsachan assumes parameters
//     un-closed). A composite literal (&T{...}) is the one exception:
//     it is provably fresh, so it starts in the protocol's initial
//     state — the first state listed in //elsa:state.
//   - Passing a tracked value as a call argument resets it to
//     unconstrained: the callee is checked separately, on its own
//     parameter.
//   - Unannotated methods of a protocol type are observers: they keep
//     the state. The annotation set IS the transition surface.
//
// The walker's own policy does the rest: a worker loop whose closing
// arm returns (the fleet incarnation loop) is clean, one that keeps
// serving after Close is a Feed-after-Close; the early-return shape
// (`if closed { return }`) does not leak its terminal state into the
// fall-through; and `defer mon.Close()` above a feed loop stays clean.
//
// Cross-package composition: each annotated type exports a StateFact on
// its *types.TypeName, so fleet code calling elsa.Monitor methods is
// checked against the protocol the root package declared — the same
// fact channel AtomicFact and LockGraphFact ride. Interface types
// carry protocols too (directives on the interface's method docs), so
// ingest.Backend constrains every call through the interface.
//
// Test files are exempt: the tests that prove ErrClosed surfaces at
// runtime deliberately Feed after Close.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const (
	stateDirective      = "//elsa:state"
	transitionDirective = "//elsa:transition"
	requiresDirective   = "//elsa:requires"
)

// StateAnalyzer verifies annotation-declared typestate protocols.
var StateAnalyzer = &analysis.Analyzer{
	Name: "elsastate",
	Doc: "verify //elsa:state lifecycle protocols: every call to a //elsa:requires or " +
		"//elsa:transition method must be legal in every state the receiver may be in",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*StateFact)(nil)},
	Run:       runState,
}

// StateTransition is one declared from->to edge.
type StateTransition struct {
	From, To string
}

// StateMethodFact is one method's protocol surface.
type StateMethodFact struct {
	Name        string
	Requires    []string
	Transitions []StateTransition
}

// StateFact is the gob-exported protocol of an annotated type,
// attached to its *types.TypeName so importing packages are checked
// against the same lifecycle the defining package declared.
type StateFact struct {
	States  []string // declared order; States[0] is the initial state
	Methods []StateMethodFact
}

func (*StateFact) AFact() {}

func (f *StateFact) String() string {
	var b strings.Builder
	b.WriteString("states(")
	b.WriteString(strings.Join(f.States, " "))
	b.WriteString(")")
	for _, m := range f.Methods {
		b.WriteString(" ")
		b.WriteString(m.Name)
		if len(m.Requires) > 0 {
			fmt.Fprintf(&b, " requires %s", strings.Join(m.Requires, ","))
		}
		for _, tr := range m.Transitions {
			fmt.Fprintf(&b, " %s->%s", tr.From, tr.To)
		}
	}
	return b.String()
}

// stateMethod is the in-memory protocol entry for one method.
type stateMethod struct {
	name        string
	requires    map[string]bool
	transitions map[string][]string // from -> targets
	anyTarget   []string            // union of all targets, for unconstrained receivers
}

// stateProto is one type's protocol.
type stateProto struct {
	typeName string
	states   []string
	stateSet map[string]bool
	methods  map[string]*stateMethod
}

func (p *stateProto) initial() string { return p.states[0] }

// protoFromFact rebuilds a checkable protocol from an imported fact.
func protoFromFact(name string, f *StateFact) *stateProto {
	p := &stateProto{
		typeName: name,
		states:   f.States,
		stateSet: make(map[string]bool, len(f.States)),
		methods:  make(map[string]*stateMethod),
	}
	for _, s := range f.States {
		p.stateSet[s] = true
	}
	for _, m := range f.Methods {
		sm := &stateMethod{name: m.Name, requires: make(map[string]bool), transitions: make(map[string][]string)}
		for _, r := range m.Requires {
			sm.requires[r] = true
		}
		for _, tr := range m.Transitions {
			sm.transitions[tr.From] = append(sm.transitions[tr.From], tr.To)
			sm.anyTarget = appendUnique(sm.anyTarget, tr.To)
		}
		p.methods[m.Name] = sm
	}
	return p
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// stateChecker holds the per-pass protocol registry.
type stateChecker struct {
	pass   *analysis.Pass
	rep    *reporter
	local  map[*types.TypeName]*stateProto
	cached map[*types.TypeName]*stateProto // imported (or negative-cached nil)
}

func runState(pass *analysis.Pass) (interface{}, error) {
	rep := newReporter(pass)
	ck := &stateChecker{
		pass:   pass,
		rep:    rep,
		local:  make(map[*types.TypeName]*stateProto),
		cached: make(map[*types.TypeName]*stateProto),
	}
	ck.collectProtos()
	ck.exportFacts()

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || inTestFile(pass.Fset, fn.Pos()) {
			return
		}
		sf := &stateFunc{ck: ck, cells: newCellTable[stateCell]()}
		sf.w = &flowWalker[*stateCell, *stateSet]{hooks: sf, rep: rep}
		sf.w.fn(fn.Body, make(stateTable))
	})
	return nil, nil
}

// collectProtos scans the package's type and method declarations for
// //elsa:state, //elsa:transition and //elsa:requires directives.
func (ck *stateChecker) collectProtos() {
	// Pass 1: types. The directive may sit on the GenDecl (the common
	// single-spec form) or on the TypeSpec itself.
	for _, f := range ck.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				arg, ok := directiveArg(typeSpecDoc(gd, ts), stateDirective)
				if !ok {
					continue
				}
				states := splitNames(arg)
				if len(states) < 2 {
					ck.rep.reportf(ts.Pos(), "state: //elsa:state on %s needs at least two states, got %q", ts.Name.Name, arg)
					continue
				}
				obj, ok := ck.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				p := &stateProto{
					typeName: ts.Name.Name,
					states:   states,
					stateSet: make(map[string]bool, len(states)),
					methods:  make(map[string]*stateMethod),
				}
				for _, s := range states {
					p.stateSet[s] = true
				}
				ck.local[obj] = p
				// Interface protocols annotate the method docs inside the
				// interface literal, since interfaces have no FuncDecls.
				if it, ok := ts.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ck.addMethodDirectives(p, name.Name, m.Doc)
						}
					}
				}
			}
		}
	}
	// Pass 2: methods with receivers of an annotated type.
	for _, f := range ck.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			hasAnno := hasDirective(fd.Doc, transitionDirective) || hasDirective(fd.Doc, requiresDirective)
			if !hasAnno {
				continue
			}
			p := ck.recvProto(fd)
			if p == nil {
				ck.rep.reportf(fd.Pos(), "state: method %s declares //elsa:transition or //elsa:requires but its receiver type has no //elsa:state protocol", fd.Name.Name)
				continue
			}
			ck.addMethodDirectives(p, fd.Name.Name, fd.Doc)
		}
	}
}

// recvProto resolves a method's receiver base type to a local protocol.
func (ck *stateChecker) recvProto(fd *ast.FuncDecl) *stateProto {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		default:
			if id, ok := t.(*ast.Ident); ok {
				if obj, ok := ck.pass.TypesInfo.Uses[id].(*types.TypeName); ok {
					return ck.local[obj]
				}
			}
			return nil
		}
	}
}

// addMethodDirectives parses the //elsa:transition and //elsa:requires
// lines of one method doc into the protocol, validating state names.
func (ck *stateChecker) addMethodDirectives(p *stateProto, name string, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	m := p.methods[name]
	ensure := func() *stateMethod {
		if m == nil {
			m = &stateMethod{name: name, requires: make(map[string]bool), transitions: make(map[string][]string)}
			p.methods[name] = m
		}
		return m
	}
	for _, c := range doc.List {
		if arg, ok := directiveText(c.Text, transitionDirective); ok {
			for _, pair := range splitNames(arg) {
				from, to, found := strings.Cut(pair, "->")
				if !found || from == "" || to == "" {
					ck.rep.reportf(c.Pos(), "state: malformed transition %q on %s.%s; want from->to", pair, p.typeName, name)
					continue
				}
				if !p.stateSet[from] || !p.stateSet[to] {
					ck.rep.reportf(c.Pos(), "state: transition %s->%s on %s.%s names a state outside //elsa:state %s",
						from, to, p.typeName, name, strings.Join(p.states, " "))
					continue
				}
				mm := ensure()
				mm.transitions[from] = append(mm.transitions[from], to)
				mm.anyTarget = appendUnique(mm.anyTarget, to)
			}
		}
		if arg, ok := directiveText(c.Text, requiresDirective); ok {
			for _, s := range splitNames(arg) {
				if !p.stateSet[s] {
					ck.rep.reportf(c.Pos(), "state: //elsa:requires %s on %s.%s names a state outside //elsa:state %s",
						s, p.typeName, name, strings.Join(p.states, " "))
					continue
				}
				ensure().requires[s] = true
			}
		}
	}
}

// exportFacts publishes every local protocol on its TypeName.
func (ck *stateChecker) exportFacts() {
	objs := make([]*types.TypeName, 0, len(ck.local))
	for obj := range ck.local {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		p := ck.local[obj]
		f := &StateFact{States: p.states}
		names := make([]string, 0, len(p.methods))
		for n := range p.methods {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := p.methods[n]
			mf := StateMethodFact{Name: n}
			for r := range m.requires {
				mf.Requires = append(mf.Requires, r)
			}
			sort.Strings(mf.Requires)
			froms := make([]string, 0, len(m.transitions))
			for from := range m.transitions {
				froms = append(froms, from)
			}
			sort.Strings(froms)
			for _, from := range froms {
				for _, to := range m.transitions[from] {
					mf.Transitions = append(mf.Transitions, StateTransition{From: from, To: to})
				}
			}
			f.Methods = append(f.Methods, mf)
		}
		ck.pass.ExportObjectFact(obj, f)
	}
}

// protoFor resolves the protocol governing a receiver type: pointers
// are stripped, local types hit the registry, imported types go
// through the fact store. Returns nil for unannotated types.
func (ck *stateChecker) protoFor(t types.Type) *stateProto {
	named := namedTypeOf(t)
	if named == nil {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == ck.pass.Pkg {
		return ck.local[obj]
	}
	if p, ok := ck.cached[obj]; ok {
		return p
	}
	var f StateFact
	var p *stateProto
	if ck.pass.ImportObjectFact(obj, &f) {
		p = protoFromFact(obj.Name(), &f)
	}
	ck.cached[obj] = p
	return p
}

// stateCell is one tracked value inside a function.
type stateCell struct {
	name  string
	proto *stateProto
}

// stateSet is the may-state of one cell: the states the value may have
// been moved into on some path, each with the position that entered
// it. vague adds "and possibly states this function has not observed"
// — the unconstrained component every value starts with. Values are
// never mutated once in a table.
type stateSet struct {
	may   map[string]token.Pos
	vague bool
}

// join is the branch join. A cell absent on one side (nil) is
// unconstrained there.
func (ss *stateSet) join(o *stateSet) *stateSet {
	out := &stateSet{may: make(map[string]token.Pos), vague: ss == nil || o == nil}
	for _, x := range []*stateSet{ss, o} {
		if x == nil {
			continue
		}
		out.vague = out.vague || x.vague
		for s, pos := range x.may {
			if _, have := out.may[s]; !have {
				out.may[s] = pos
			}
		}
	}
	return out
}

func (ss *stateSet) same(o *stateSet) bool {
	if ss == nil || o == nil {
		return ss == o
	}
	if ss.vague != o.vague || len(ss.may) != len(o.may) {
		return false
	}
	for s := range ss.may {
		if _, ok := o.may[s]; !ok {
			return false
		}
	}
	return true
}

// stateTable maps tracked cells to their current may-state. A cell
// absent from the table is fully unconstrained (vague, no observed
// states).
type stateTable = flowState[*stateCell, *stateSet]

// stateFunc holds the transfer functions of one function's walk.
type stateFunc struct {
	ck    *stateChecker
	cells cellTable[stateCell]
	w     *flowWalker[*stateCell, *stateSet]
}

// cellFor resolves an expression of a protocol type to its cell.
func (sf *stateFunc) cellFor(e ast.Expr) *stateCell {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	t := sf.ck.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	proto := sf.ck.protoFor(t)
	if proto == nil {
		return nil
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return sf.cells.lookup(sf.ck.pass.TypesInfo, e, func(name string) *stateCell {
			return &stateCell{name: name, proto: proto}
		})
	}
	return nil
}

// bind resets an assigned cell: a fresh composite literal starts in the
// initial state, anything else is unconstrained.
func (sf *stateFunc) bind(lhs, rhs ast.Expr, tbl stateTable) {
	cell := sf.cellFor(lhs)
	switch {
	case cell == nil:
	case rhs != nil && isCompositeLit(rhs):
		tbl[cell] = freshState(cell, lhs.Pos())
	default:
		delete(tbl, cell)
	}
}

func (sf *stateFunc) send(*ast.SendStmt, stateTable) {}

// isCompositeLit reports whether e is (a pointer to) a composite
// literal — a provably fresh value.
func isCompositeLit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

func freshState(cell *stateCell, pos token.Pos) *stateSet {
	return &stateSet{may: map[string]token.Pos{cell.proto.initial(): pos}}
}

// call checks a method call against its receiver's protocol and
// advances the receiver's state; unannotated methods of a protocol type
// are observers, since the annotation set is the full transition
// surface. Tracked cells passed as arguments drop back to
// unconstrained: the callee is checked on its own parameters.
func (sf *stateFunc) call(call *ast.CallExpr, tbl stateTable) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := sf.ck.pass.TypesInfo.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			if proto := sf.ck.protoFor(s.Recv()); proto != nil && proto.methods[sel.Sel.Name] != nil {
				if cell := sf.cellFor(sel.X); cell != nil {
					sf.applyMethod(call, cell, proto.methods[sel.Sel.Name], tbl)
				}
			}
		}
	}
	for _, a := range call.Args {
		if cell := sf.cellFor(a); cell != nil {
			delete(tbl, cell)
		}
	}
}

// applyMethod enforces requires and applies transitions for one call.
func (sf *stateFunc) applyMethod(call *ast.CallExpr, cell *stateCell, m *stateMethod, tbl stateTable) {
	ss, tracked := tbl[cell]
	if !tracked {
		// Unconstrained receiver: requires cannot be judged; transitions
		// land the value in the union of declared targets.
		if len(m.transitions) > 0 {
			next := &stateSet{may: make(map[string]token.Pos, len(m.anyTarget))}
			for _, to := range m.anyTarget {
				next.may[to] = call.Pos()
			}
			tbl[cell] = next
		}
		return
	}

	states := make([]string, 0, len(ss.may))
	for s := range ss.may {
		states = append(states, s)
	}
	sort.Strings(states)

	if len(m.requires) > 0 {
		var bad []string
		for _, s := range states {
			if !m.requires[s] {
				bad = append(bad, s)
			}
		}
		if len(bad) > 0 {
			reqs := make([]string, 0, len(m.requires))
			for r := range m.requires {
				reqs = append(reqs, r)
			}
			sort.Strings(reqs)
			sf.w.reportf(call.Pos(), "state: %s.%s requires state %s, but %s may be in state %s (entered at line %d)",
				cell.proto.typeName, m.name, strings.Join(reqs, " or "), cell.name,
				strings.Join(bad, "/"), sf.ck.pass.Fset.Position(ss.may[bad[0]]).Line)
		}
	}

	if len(m.transitions) > 0 {
		next := &stateSet{may: make(map[string]token.Pos)}
		var dead []string
		for _, s := range states {
			targets := m.transitions[s]
			if len(targets) == 0 {
				if len(m.requires) == 0 || m.requires[s] {
					// Only report states the requires check has not already
					// flagged, so one bad call yields one finding.
					dead = append(dead, s)
				}
				continue
			}
			for _, to := range targets {
				if _, ok := next.may[to]; !ok {
					next.may[to] = call.Pos()
				}
			}
		}
		if len(dead) > 0 {
			sf.w.reportf(call.Pos(), "state: %s.%s has no transition from state %s (%s entered it at line %d); declared: %s",
				cell.proto.typeName, m.name, strings.Join(dead, "/"), cell.name,
				sf.ck.pass.Fset.Position(ss.may[dead[0]]).Line, transitionList(m))
		}
		if ss.vague {
			for _, to := range m.anyTarget {
				if _, ok := next.may[to]; !ok {
					next.may[to] = call.Pos()
				}
			}
		}
		if len(next.may) == 0 {
			delete(tbl, cell) // every path was invalid: recover to unconstrained
		} else {
			tbl[cell] = next
		}
	}
}

// transitionList renders a method's declared transitions for messages.
func transitionList(m *stateMethod) string {
	froms := make([]string, 0, len(m.transitions))
	for from := range m.transitions {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	var parts []string
	for _, from := range froms {
		for _, to := range m.transitions[from] {
			parts = append(parts, from+"->"+to)
		}
	}
	return strings.Join(parts, " ")
}
