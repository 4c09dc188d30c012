package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotPathAnalyzer is the vet-time syntactic screen of the //elsa:hotpath
// contract: it flags the constructs that cost an allocation whatever
// escape analysis concludes — append growth, fmt formatting, goroutine
// launches, string<->[]byte conversions, implicit concrete→interface
// boxing, make(chan), and make(map)/map literals (a map the compiler
// keeps on the stack still allocates when it grows, and -m does not
// print either shape). The allocation sites escape analysis decides
// (make([]T), new, composite literals, closures, addressed locals) are
// the compiler's to judge: TestEscapeOracle reads its -m report.
var HotPathAnalyzer = &analysis.Analyzer{
	Name: "elsahotpath",
	Doc: "report constructs that always allocate per call (append growth, fmt calls, goroutine " +
		"launches, interface boxing, string<->[]byte conversions, channels and maps) inside functions " +
		"marked //elsa:hotpath",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotPath,
}

func runHotPath(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if !isHotPath(fn) || fn.Body == nil {
			return
		}
		checkHotBody(pass, rep, fn)
	})
	return nil, nil
}

func checkHotBody(pass *analysis.Pass, rep *reporter, fn *ast.FuncDecl) {
	var sig *types.Signature
	if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}
	checkHotScope(pass, rep, fn.Body, sig)
}

// checkHotScope checks one function body against its own signature.
// Nested func literals recurse with the literal's signature, so each
// return statement pairs with its innermost enclosing function — a
// closure returning int inside a kernel returning any is not a boxing
// site, and boxing inside the closure is judged against the closure's
// results.
func checkHotScope(pass *analysis.Pass, rep *reporter, body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lsig, _ := pass.TypesInfo.TypeOf(n).(*types.Signature)
			checkHotScope(pass, rep, n.Body, lsig)
			return false
		case *ast.CallExpr:
			checkHotCall(pass, rep, n)
		case *ast.CompositeLit:
			if _, isMap := pass.TypesInfo.TypeOf(n).Underlying().(*types.Map); isMap {
				rep.reportf(n.Pos(), hotMapMsg, "map literal")
			}
		case *ast.GoStmt:
			rep.reportf(n.Pos(), "hotpath: goroutine launch allocates a stack")
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, rep, sig, n)
		}
		checkIfaceConv(pass, rep, n)
		return true
	})
}

const hotMapMsg = "hotpath: %s in a hotpath kernel is not provably allocation-free " +
	"(map storage is heap-allocated); hoist it into reusable scratch state"

// checkHotCall flags builtin and fmt calls that allocate.
func checkHotCall(pass *analysis.Pass, rep *reporter, call *ast.CallExpr) {
	info := pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		b, ok := info.Uses[fun].(*types.Builtin)
		if !ok {
			break
		}
		switch b.Name() {
		case "append":
			rep.reportf(call.Pos(), "hotpath: append may grow and allocate; preallocate in a scratch buffer")
		case "make":
			switch info.TypeOf(call).Underlying().(type) {
			case *types.Map:
				rep.reportf(call.Pos(), hotMapMsg, "make(map)")
			case *types.Chan:
				rep.reportf(call.Pos(), "hotpath: make(chan) in a hotpath kernel allocates; channels belong to setup, not the per-call path")
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			rep.reportf(call.Pos(), "hotpath: fmt.%s allocates (formatting boxes every operand)", obj.Name())
		}
	}
	// Conversion between string and []byte/[]rune copies.
	if len(call.Args) == 1 {
		if to, ok := info.Types[call.Fun]; ok && to.IsType() {
			from := info.TypeOf(call.Args[0])
			if from != nil && isStringBytesConv(to.Type, from) {
				rep.reportf(call.Pos(), "hotpath: %s conversion copies", types.TypeString(to.Type, types.RelativeTo(pass.Pkg)))
			}
		}
	}
}

func isStringBytesConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}

// checkReturnBoxing flags returns whose result slot is an interface
// fed a concrete value — boxing the enclosing function's return path.
func checkReturnBoxing(pass *analysis.Pass, rep *reporter, sig *types.Signature, ret *ast.ReturnStmt) {
	if sig == nil {
		return
	}
	results := sig.Results()
	if results.Len() != len(ret.Results) {
		return // naked return or tuple-splitting call; nothing to pair up
	}
	for i, e := range ret.Results {
		flagIfaceConv(pass, rep, e, results.At(i).Type())
	}
}

// flagIfaceConv reports e if assigning it to type to boxes a concrete
// value into an interface.
func flagIfaceConv(pass *analysis.Pass, rep *reporter, e ast.Expr, to types.Type) {
	if e == nil || to == nil || !types.IsInterface(to) {
		return
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type) || tv.IsNil() {
		return
	}
	rep.reportf(e.Pos(), "hotpath: implicit conversion of %s to interface %s allocates",
		types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)),
		types.TypeString(to, types.RelativeTo(pass.Pkg)))
}

// checkIfaceConv flags implicit concrete-to-interface conversions in
// call arguments and assignments — each one boxes its operand.
func checkIfaceConv(pass *analysis.Pass, rep *reporter, n ast.Node) {
	info := pass.TypesInfo
	switch n := n.(type) {
	case *ast.CallExpr:
		sig, ok := info.TypeOf(n.Fun).(*types.Signature)
		if !ok {
			return // conversion or builtin; builtins like append don't box
		}
		params := sig.Params()
		for i, arg := range n.Args {
			var pt types.Type
			if sig.Variadic() && i >= params.Len()-1 {
				if n.Ellipsis.IsValid() {
					continue // passing a slice through ... doesn't box per element
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			} else if i < params.Len() {
				pt = params.At(i).Type()
			}
			flagIfaceConv(pass, rep, arg, pt)
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Lhs {
			flagIfaceConv(pass, rep, n.Rhs[i], info.TypeOf(n.Lhs[i]))
		}
	}
}
