package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CtxFlowAnalyzer enforces the streaming graph's cancellation contract:
// a function that accepts a context.Context promises its callers it can
// be cancelled, so every potentially-blocking channel operation in it
// (including in the stage goroutines it launches) must be paired with
// ctx.Done() in a select. A bare send into a bounded stage channel is
// exactly the deadlock-on-cancel bug class the pipeline's drain logic
// exists to prevent.
var CtxFlowAnalyzer = &analysis.Analyzer{
	Name: "elsactxflow",
	Doc: "in functions taking a context.Context, report blocking channel sends/receives, channel " +
		"ranges, bare time.Sleep calls and naked <-time.After receives that are not guarded by a " +
		"select with a ctx.Done() case",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || !hasCtxParam(pass.TypesInfo, fn) {
			return
		}
		checkCtxBody(pass, rep, fn.Body)
	})
	return nil, nil
}

// hasCtxParam reports whether fn declares a context.Context parameter.
func hasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, f := range fn.Type.Params.List {
		if isContextType(info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isTimeCall reports whether e is a call to time.<name> (the package
// function, not a method on a Timer/Ticker).
func isTimeCall(info *types.Info, e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}

// isDoneRecv reports whether e is a receive from somectx.Done().
func isDoneRecv(info *types.Info, e ast.Expr) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op.String() != "<-" {
		return false
	}
	call, ok := ast.Unparen(u.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isContextType(info.TypeOf(sel.X))
}

// selectGuarded reports whether a select statement contains a default
// case (non-blocking) or a case receiving from ctx.Done().
func selectGuarded(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default: the select cannot block
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if isDoneRecv(info, comm.X) {
				return true
			}
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				if isDoneRecv(info, r) {
					return true
				}
			}
		}
	}
	return false
}

// checkCtxBody walks body (including nested function literals, which run
// within the same cancellable lifetime) flagging unguarded channel ops.
func checkCtxBody(pass *analysis.Pass, rep *reporter, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.SelectStmt:
			if !selectGuarded(info, n) {
				rep.reportf(n.Pos(), "ctxflow: select in a cancellable function has neither a ctx.Done() case nor a default")
			}
			// Channel ops in the comm clauses are covered by the select
			// verdict; their bodies are ordinary code again.
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				for _, s := range cc.Body {
					walk(s)
				}
			}
			return
		case *ast.SendStmt:
			rep.reportf(n.Pos(), "ctxflow: bare channel send can block forever on cancellation; select on it with ctx.Done()")
			walk(n.Value)
			return
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !isDoneRecv(info, n) {
				if isTimeCall(info, n.X, "After") {
					rep.reportf(n.Pos(), "ctxflow: naked <-time.After ignores cancellation for the whole delay; select on it with ctx.Done()")
				} else {
					rep.reportf(n.Pos(), "ctxflow: bare channel receive can block forever on cancellation; select on it with ctx.Done()")
				}
			}
			walk(n.X)
			return
		case *ast.CallExpr:
			if isTimeCall(info, n, "Sleep") {
				rep.reportf(n.Pos(), "ctxflow: time.Sleep in a cancellable function stalls cancellation; select on time.After and ctx.Done()")
			}
		case *ast.RangeStmt:
			if _, isChan := info.TypeOf(n.X).Underlying().(*types.Chan); isChan {
				rep.reportf(n.Pos(), "ctxflow: range over channel blocks until close; drain with a select on ctx.Done()")
			}
		}
		forEachChild(n, walk)
	}
	for _, s := range body.List {
		walk(s)
	}
}
