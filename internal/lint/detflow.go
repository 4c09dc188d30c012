package lint

// detflow.go is the taint layer of the determinism contract.
// elsadeterminism is its syntactic pre-pass: inside the training
// packages it bans every wall-clock read, global-rand call and
// unsorted map-order escape outright, because the trained model must
// be bit-identical across runs. elsadetflow covers the wider serving
// surface — pipeline, fleet, ingest and the root package — where
// nondeterminism is only a bug when it *reaches replayed output*:
// predictions, snapshot/journal bytes, or exported stats. It tracks
// taint from four source families:
//
//   - wall clock: time.Now / time.Since / time.Until
//   - global randomness: package-level math/rand functions
//   - map iteration order: slices appended under a range-over-map and
//     never sorted in the function
//   - arrival/completion order: slices appended inside multi-case
//     select arms or inside go'd closures writing to outer slices
//
// forward through assignments, and reports only when a tainted value
// hits a sink:
//
//   - the return value of an exported function or method
//   - an encoding/json, encoding/gob or encoding/binary call
//     (snapshot and journal bytes)
//   - a field store into an //elsa:snapshot struct
//
// The escape hatch is //elsa:nondet-ok <reason> on the source or sink
// line (or the line above): operational telemetry that is allowed to
// be wall-clock-stamped carries its justification in the code, and a
// reasonless escape is itself a finding, exactly like a reasonless
// //nolint. A //nolint:elsadeterminism suppression also covers this
// analyzer — one contract, two depths, one suppression.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const nondetOkDirective = "//elsa:nondet-ok"

// DetFlowAnalyzer reports nondeterminism that reaches replayed output.
var DetFlowAnalyzer = &analysis.Analyzer{
	Name: "elsadetflow",
	Doc: "track wall-clock, global-rand and iteration/arrival-order taint through the " +
		"serving path and report it only where it reaches prediction output, snapshot or " +
		"journal bytes, or exported stats",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetFlow,
}

// detFlowPackages scopes the taint analysis to the packages whose
// output is replayed or persisted. The training packages are included
// for defence in depth: elsadeterminism bans the sources there
// outright, so anything detflow finds in them is already covered.
var detFlowPackages = "sig,gradual,correlate,predict,pipeline,fleet,ingest,elsa"

func init() {
	DetFlowAnalyzer.Flags.StringVar(&detFlowPackages, "packages", detFlowPackages,
		"comma-separated package names the determinism taint analysis covers")
}

// taintInfo records why a storage path is nondeterministic.
type taintInfo struct {
	kind string    // human description of the source
	pos  token.Pos // the source site
}

func runDetFlow(pass *analysis.Pass) (interface{}, error) {
	if !inScope(detFlowPackages, pass.Pkg) {
		return nil, nil
	}
	rep := newReporter(pass)
	// elsadeterminism is the syntactic pre-pass of this contract: its
	// suppressions carry over.
	rep.sup.aliases = []string{DeterminismAnalyzer.Name}

	df := &detFlow{
		pass:      pass,
		rep:       rep,
		okLines:   nondetOkIndex(pass, rep),
		snapTypes: snapshotAnnotatedTypes(pass),
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || inTestFile(pass.Fset, fn.Pos()) {
			return
		}
		df.checkFunc(fn)
	})
	return nil, nil
}

// nondetOkIndex collects every reasoned //elsa:nondet-ok by file line.
// Reasonless directives are flagged and do not suppress — the escape
// hatch must document why the nondeterminism is acceptable.
func nondetOkIndex(pass *analysis.Pass, rep *reporter) *lineIndex[string] {
	return indexComments(pass.Fset, pass.Files, func(c *ast.Comment) (string, bool) {
		reason, ok := directiveText(c.Text, nondetOkDirective)
		if ok && reason == "" && !inTestFile(pass.Fset, c.Pos()) {
			rep.reportf(c.Pos(), "detflow: //elsa:nondet-ok needs a reason; an undocumented escape hatch cannot be audited")
		}
		return reason, reason != ""
	})
}

// snapshotAnnotatedTypes collects the package's //elsa:snapshot struct
// type names: stores into their fields persist across resume, so
// tainted stores there are sinks.
func snapshotAnnotatedTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
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
				if !hasDirective(typeSpecDoc(gd, ts), snapshotDirective) {
					continue
				}
				if obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// detFlow is the per-pass state.
type detFlow struct {
	pass      *analysis.Pass
	rep       *reporter
	okLines   *lineIndex[string]
	snapTypes map[*types.TypeName]bool
}

// okAt reports whether a reasoned //elsa:nondet-ok covers pos (its
// line or the line above, the nolint convention).
func (df *detFlow) okAt(pos token.Pos) bool {
	return len(df.okLines.near(pos)) > 0
}

// reportSink emits one finding unless the source or sink carries a
// reasoned escape.
func (df *detFlow) reportSink(sinkPos token.Pos, t taintInfo, sink string) {
	if df.okAt(sinkPos) || df.okAt(t.pos) {
		return
	}
	df.rep.reportf(sinkPos, "detflow: %s (line %d) reaches %s; replayed output must be deterministic (sort/inject a seam, or //elsa:nondet-ok <reason>)",
		t.kind, df.pass.Fset.Position(t.pos).Line, sink)
}

// checkFunc runs the taint analysis over one function.
func (df *detFlow) checkFunc(fn *ast.FuncDecl) {
	sorted := sortedRoots(df.pass.TypesInfo, fn)
	taints := make(map[string]taintInfo)

	df.seedOrderTaints(fn, taints, sorted)
	// Forward value propagation through assignments; two passes so a
	// later-defined helper value feeding an earlier loop converges.
	for i := 0; i < 2; i++ {
		df.propagate(fn, taints)
	}
	df.checkReturns(fn, taints)
	df.checkCalls(fn, taints)
	df.checkSnapshotStores(fn, taints)
}

// sourceTaint classifies a call as a nondeterminism source.
func (df *detFlow) sourceTaint(call *ast.CallExpr) (taintInfo, bool) {
	obj := calleeFunc(df.pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil || obj.Type().(*types.Signature).Recv() != nil {
		return taintInfo{}, false
	}
	switch obj.Pkg().Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			return taintInfo{kind: "wall-clock value from time." + obj.Name(), pos: call.Pos()}, true
		}
	case "math/rand", "math/rand/v2":
		switch obj.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// Constructors over explicit seeds are deterministic.
		default:
			return taintInfo{kind: "global-rand value from " + obj.Pkg().Name() + "." + obj.Name(), pos: call.Pos()}, true
		}
	}
	return taintInfo{}, false
}

// taintOf reports the taint an expression carries: a direct source
// call, or any mention of a tainted storage path (prefix matching in
// both directions: a tainted field taints its container and vice
// versa).
func (df *detFlow) taintOf(e ast.Expr, taints map[string]taintInfo) (taintInfo, bool) {
	var found taintInfo
	ok := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure value is not itself tainted
		case *ast.CallExpr:
			if t, is := df.sourceTaint(n); is {
				found, ok = t, true
				return false
			}
		case *ast.Ident, *ast.SelectorExpr:
			path := rootString(n.(ast.Expr))
			if path == "" {
				return true
			}
			if t, is := lookupTaint(taints, path); is {
				found, ok = t, true
				return false
			}
			// Only descend into selector bases when the full path missed,
			// and idents need no descent.
			if _, isSel := n.(*ast.SelectorExpr); isSel {
				return false
			}
		}
		return true
	})
	return found, ok
}

// lookupTaint matches path against the taint map with bidirectional
// prefix semantics on dotted storage paths.
func lookupTaint(taints map[string]taintInfo, path string) (taintInfo, bool) {
	if t, ok := taints[path]; ok {
		return t, true
	}
	for p, t := range taints {
		if strings.HasPrefix(p, path+".") || strings.HasPrefix(path, p+".") {
			return t, true
		}
	}
	return taintInfo{}, false
}

// propagate walks every assignment, tainting LHS roots whose RHS
// carries taint.
func (df *detFlow) propagate(fn *ast.FuncDecl, taints map[string]taintInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				root := rootString(l)
				if root == "" {
					continue
				}
				if t, ok := df.taintOf(rhs, taints); ok {
					if _, have := taints[root]; !have {
						taints[root] = t
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					if t, ok := df.taintOf(n.Values[i], taints); ok {
						if _, have := taints[name.Name]; !have {
							taints[name.Name] = t
						}
					}
				}
			}
		}
		return true
	})
}

// seedOrderTaints marks slices whose element order depends on map
// iteration, select arrival, or goroutine completion.
func (df *detFlow) seedOrderTaints(fn *ast.FuncDecl, taints map[string]taintInfo, sorted map[string]bool) {
	info := df.pass.TypesInfo
	seed := func(target string, kind string, pos token.Pos) {
		if target == "" || sorted[target] {
			return
		}
		if _, have := taints[target]; !have {
			taints[target] = taintInfo{kind: kind, pos: pos}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap {
				orderedAppends(info, n.Body, func(asg *ast.AssignStmt, target string) {
					seed(target, "map-iteration-ordered elements", asg.Pos())
				})
			}
		case *ast.SelectStmt:
			comms := 0
			for _, c := range n.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				for _, c := range n.Body.List {
					orderedAppends(info, c, func(asg *ast.AssignStmt, target string) {
						seed(target, "select-arrival-ordered elements", asg.Pos())
					})
				}
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				orderedAppends(info, lit.Body, func(asg *ast.AssignStmt, target string) {
					// A shared slice appended to from a goroutine: its final
					// order is a scheduling artifact.
					if id := baseIdent(asg.Lhs[0]); id != nil && declaredOutside(info, id, lit) {
						seed(target, "goroutine-completion-ordered elements", asg.Pos())
					}
				})
			}
		}
		return true
	})
}

// baseIdent strips selectors, indexes and derefs off an lvalue down to
// the identifier it is rooted in, nil when there is none.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// checkReturns flags tainted values returned from exported functions.
func (df *detFlow) checkReturns(fn *ast.FuncDecl, taints map[string]taintInfo) {
	if !fn.Name.IsExported() {
		return
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // nested closures return to their own caller
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if t, ok := df.taintOf(r, taints); ok {
						df.reportSink(m.Pos(), t, "the return value of exported "+fn.Name.Name)
						break
					}
				}
			}
			return true
		})
	}
	walk(fn.Body)
}

// encodingSinkPkgs are the packages whose calls produce the bytes that
// land in snapshots, journals and wire output.
var encodingSinkPkgs = map[string]bool{
	"encoding/json":   true,
	"encoding/gob":    true,
	"encoding/binary": true,
}

// checkCalls flags tainted arguments to serialization calls.
func (df *detFlow) checkCalls(fn *ast.FuncDecl, taints map[string]taintInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := df.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || !encodingSinkPkgs[obj.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			if t, ok := df.taintOf(arg, taints); ok {
				df.reportSink(call.Pos(), t, "serialized bytes via "+obj.Pkg().Name()+"."+obj.Name())
				break
			}
		}
		return true
	})
}

// checkSnapshotStores flags tainted stores into //elsa:snapshot struct
// fields — state that persists across resume must be replayable.
func (df *detFlow) checkSnapshotStores(fn *ast.FuncDecl, taints map[string]taintInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range asg.Lhs {
			sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			t := df.pass.TypesInfo.TypeOf(sel.X)
			if t == nil {
				continue
			}
			named := namedTypeOf(t)
			if named == nil || !df.snapTypes[named.Obj()] {
				continue
			}
			var rhs ast.Expr
			if len(asg.Rhs) == len(asg.Lhs) {
				rhs = asg.Rhs[i]
			} else if len(asg.Rhs) == 1 {
				rhs = asg.Rhs[0]
			}
			if rhs == nil {
				continue
			}
			if ti, tainted := df.taintOf(rhs, taints); tainted {
				df.reportSink(asg.Pos(), ti, "//elsa:snapshot state "+named.Obj().Name()+"."+sel.Sel.Name)
			}
		}
		return true
	})
}
