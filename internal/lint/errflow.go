package lint

// errflow.go enforces the quarantine-and-continue contract on the
// serving path: a malformed record must never vanish. In the scoped
// packages (pipeline, ingest, resilience) every `err != nil` branch
// must account for the error one of three ways — return it to the
// caller, quarantine the offending input, or increment a stats
// counter — so an operator can always reconstruct how many inputs were
// dropped and why. A branch that merely `continue`s past the error is
// exactly how a parser regression turns into a silently shrinking
// training set.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ErrFlowAnalyzer reports err != nil branches that discard the error.
var ErrFlowAnalyzer = &analysis.Analyzer{
	Name: "elsaerrflow",
	Doc: "in the serving-path packages, every err != nil branch must account for the error: " +
		"return it, quarantine it, or increment a stats counter",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runErrFlow,
}

// errFlowPackages scopes the contract to the packages where a dropped
// error silently corrupts the served model.
var errFlowPackages = "pipeline,ingest,resilience"

func init() {
	ErrFlowAnalyzer.Flags.StringVar(&errFlowPackages, "packages", errFlowPackages,
		"comma-separated package names the error-accounting contract covers")
}

// errAccountingNames are method/function names whose call in an error
// branch counts as accounting: stats counters and quarantine sinks.
var errAccountingNames = map[string]bool{
	"Add": true, "Inc": true, "Count": true, "Store": true,
	"Record": true, "Observe": true, "Mark": true,
}

func runErrFlow(pass *analysis.Pass) (interface{}, error) {
	if !inScope(errFlowPackages, pass.Pkg) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || inTestFile(pass.Fset, fn.Pos()) {
			return
		}
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			ifs, ok := m.(*ast.IfStmt)
			if !ok {
				return true
			}
			errExpr := errNeqNilOperand(pass.TypesInfo, ifs.Cond)
			if errExpr == nil {
				return true
			}
			// A stored error (s.err != nil) was accounted when it was
			// stashed; re-checking it is state inspection, not handling.
			if _, isIdent := ast.Unparen(errExpr).(*ast.Ident); !isIdent {
				return true
			}
			if errBranchAccounts(pass.TypesInfo, ifs.Body, errExpr, fn) {
				return true
			}
			rep.reportf(ifs.Pos(), "errflow: %s != nil branch neither returns, quarantines, nor counts the error; "+
				"the serving path must account for every error", errDisplay(errExpr))
			return true
		})
	})
	return nil, nil
}

// errNeqNilOperand digs through a condition (including composites like
// `!ok || err != nil`) for an `X != nil` comparison whose X has error
// type, returning X.
func errNeqNilOperand(info *types.Info, cond ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(cond, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.NEQ {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			x, y := ast.Unparen(pair[0]), ast.Unparen(pair[1])
			if id, ok := y.(*ast.Ident); !ok || id.Name != "nil" {
				continue
			}
			if t := info.TypeOf(x); t != nil && isErrorType(t) {
				found = x
				return false
			}
		}
		return true
	})
	return found
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil // the universe error type
}

// errBranchAccounts decides whether an error branch accounts for the
// error: it mentions the error value again (returning, wrapping,
// stashing or logging it), increments something, panics, calls a
// counter/quarantine sink, or is a bare return with the error bound to
// a named result.
func errBranchAccounts(info *types.Info, body *ast.BlockStmt, errExpr ast.Expr, fn *ast.FuncDecl) bool {
	errObj := errObjOf(info, errExpr)
	errRoot := rootString(errExpr)
	accounts := false
	ast.Inspect(body, func(n ast.Node) bool {
		if accounts {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if errObj != nil && info.Uses[n] == errObj {
				accounts = true
			}
		case *ast.SelectorExpr:
			if errRoot != "" && rootString(n) == errRoot {
				accounts = true
				return false
			}
			return true
		case *ast.IncDecStmt:
			accounts = true
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					accounts = true
				}
			case *ast.SelectorExpr:
				if callAccountsForError(fun.Sel.Name) {
					accounts = true
				}
			}
			return true
		case *ast.ReturnStmt:
			if len(n.Results) == 0 && errNamedResult(info, errObj, fn) {
				accounts = true
			}
			// Returning any non-nil error value accounts: the branch
			// translated the failure into a classified error the caller
			// must handle (return errFrameTorn for a short read).
			for _, res := range n.Results {
				res = ast.Unparen(res)
				if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
					continue
				}
				if t := info.TypeOf(res); t != nil && isErrorType(t) {
					accounts = true
				}
			}
			return true
		}
		return !accounts
	})
	return accounts
}

// callAccountsForError matches counter and quarantine sink names.
func callAccountsForError(name string) bool {
	if errAccountingNames[name] {
		return true
	}
	return strings.Contains(name, "uarantine") || strings.Contains(name, "esync")
}

// errNamedResult reports whether the error object is one of the
// enclosing function's named results, so a bare return propagates it.
func errNamedResult(info *types.Info, errObj types.Object, fn *ast.FuncDecl) bool {
	if errObj == nil || fn.Type.Results == nil {
		return false
	}
	for _, f := range fn.Type.Results.List {
		for _, name := range f.Names {
			if info.Defs[name] == errObj {
				return true
			}
		}
	}
	return false
}

func errObjOf(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return objOf(info, id)
	}
	return nil
}

func errDisplay(e ast.Expr) string {
	if s := rootString(e); s != "" {
		return s
	}
	return "err"
}
