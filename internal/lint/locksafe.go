package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// LockSafeAnalyzer flags two goroutine-lifetime mistakes that bit (or
// nearly bit) the parallel training and streaming stages:
//
//  1. WaitGroup.Add called inside the goroutine it accounts for — the
//     classic Wait-before-Add race; Add must happen before `go`;
//  2. goroutines launched from a cancellable (ctx-taking) function with
//     neither a ctx reference nor a WaitGroup join in their body — the
//     leak Run's "all stage goroutines are joined" contract forbids.
//
// Locks copied by value (parameters, receivers, assignments, range
// variables) are stock go vet's copylocks; CI's build job runs it as
// `go vet ./...`.
//
// Check 2 is the syntactic pre-pass of elsachan's goroutine-leak
// analysis: elsachan models the channel cells the goroutine blocks on,
// and honors //nolint:elsalocksafe suppressions as its own (one
// contract, two depths).
var LockSafeAnalyzer = &analysis.Analyzer{
	Name: "elsalocksafe",
	Doc: "report WaitGroup.Add inside the goroutine it guards, and goroutines in cancellable " +
		"functions with no cancellation or join path",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runLockSafe,
}

func runLockSafe(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if fn := n.(*ast.FuncDecl); fn.Body != nil {
			checkGoroutines(pass, rep, fn)
		}
	})
	return nil, nil
}

// checkGoroutines flags (a) wg.Add inside a go'd function literal when
// wg is captured from the enclosing scope, and (b) in ctx-taking
// functions, go'd literals whose body has no cancellation or join path.
func checkGoroutines(pass *analysis.Pass, rep *reporter, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	cancellable := hasCtxParam(info, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		hasJoin, hasCtx := false, false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
					obj, _ := info.Uses[sel.Sel].(*types.Func)
					if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
						recv := obj.Type().(*types.Signature).Recv()
						if recv != nil && strings.Contains(recv.Type().String(), "WaitGroup") {
							switch obj.Name() {
							case "Add":
								// A selector like s.wg is rooted in captured state or a
								// parameter either way: treated as outside.
								if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || declaredOutside(info, id, lit) {
									rep.reportf(m.Pos(),
										"locksafe: WaitGroup.Add inside the goroutine it guards races Wait; call Add before the go statement")
								}
							case "Done":
								hasJoin = true
							}
						}
					}
				}
			case *ast.Ident:
				if isContextType(info.TypeOf(m)) {
					hasCtx = true
				}
			}
			return true
		})
		if cancellable && !hasJoin && !hasCtx {
			rep.reportf(g.Pos(),
				"locksafe: goroutine in a cancellable function has neither a ctx reference nor a WaitGroup join; it can leak past cancellation")
		}
		return true
	})
}
