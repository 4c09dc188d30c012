package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DeterminismAnalyzer guards the training pipeline's bit-identical
// guarantee: given the same records and config, Train must produce the
// same model on any machine, any GOMAXPROCS, any run. Wall clocks, the
// global rand source and map iteration order are the three ways that
// guarantee has historically been lost in correlation miners, so inside
// the scoped packages all three are flagged. Non-library test files are
// exempt.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name: "elsadeterminism",
	Doc: "in deterministic packages, report wall-clock reads (time.Now/Since), global math/rand use, " +
		"and map iteration order escaping into ordered output without a sort",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDeterminism,
}

// determinismPackages is the default scope: the packages whose outputs
// feed the trained model and the online predictions.
var determinismPackages = "sig,gradual,correlate,predict"

func init() {
	DeterminismAnalyzer.Flags.StringVar(&determinismPackages, "packages", determinismPackages,
		"comma-separated package names the determinism contract covers")
}

func runDeterminism(pass *analysis.Pass) (interface{}, error) {
	if !inScope(determinismPackages, pass.Pkg) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)

	// Selector uses, not just calls: assigning time.Now to a clock
	// variable is the sanctioned injection seam, and it must carry the
	// nolint that documents it.
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if inTestFile(pass.Fset, sel.Pos()) {
			return
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return
		}
		// Package-level functions only: methods on an explicitly seeded
		// *rand.Rand are the sanctioned way to get randomness.
		if obj.Type().(*types.Signature).Recv() != nil {
			return
		}
		switch obj.Pkg().Path() {
		case "time":
			switch obj.Name() {
			case "Now", "Since", "Until":
				rep.reportf(sel.Pos(), "determinism: time.%s reads the wall clock; inject a clock or timestamp instead", obj.Name())
			}
		case "math/rand", "math/rand/v2":
			switch obj.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				// Constructors over explicit seeds are the fix, not the bug.
			default:
				rep.reportf(sel.Pos(), "determinism: %s.%s uses the shared global source; use an explicitly seeded *rand.Rand",
					obj.Pkg().Name(), obj.Name())
			}
		}
	})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || inTestFile(pass.Fset, fn.Pos()) {
			return
		}
		checkMapOrderEscapes(pass, rep, fn)
	})
	return nil, nil
}

// checkMapOrderEscapes flags appends executed inside a range-over-map
// whose target slice is never passed to a sort call in the same
// function: the slice's element order then depends on map iteration
// order, which Go randomises per run. Appending and sorting afterwards
// is the sanctioned pattern (and what the slot-indexed merges do at a
// larger scale).
func checkMapOrderEscapes(pass *analysis.Pass, rep *reporter, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	sorted := sortedRoots(info, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
			return true
		}
		orderedAppends(info, rng.Body, func(asg *ast.AssignStmt, target string) {
			if target == "" || sorted[target] {
				return
			}
			rep.reportf(asg.Pos(),
				"determinism: %s is built in map iteration order and never sorted in this function; sort it (or //nolint:elsadeterminism with the invariant that makes order irrelevant)",
				target)
		})
		return true
	})
}

// sortedRoots is every storage path handed to a sort function anywhere
// in fn: an explicit sort re-establishes order determinism, wherever
// in the function it lives.
func sortedRoots(info *types.Info, fn *ast.FuncDecl) map[string]bool {
	sorted := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isSort := false
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sort", "slices":
					isSort = true
				default:
					isSort = strings.Contains(obj.Name(), "Sort")
				}
			}
		case *ast.Ident:
			// Project-local canonicalisers (SortHits, SortByTime, ...)
			// count: the contract is an explicit sort, wherever it lives.
			isSort = strings.Contains(fun.Name, "Sort") || strings.Contains(fun.Name, "sort")
		}
		if isSort {
			for _, arg := range call.Args {
				if r := rootString(arg); r != "" {
					sorted[r] = true
				}
			}
		}
		return true
	})
	return sorted
}

// orderedAppends calls visit for every `x = append(...)` under body
// with x's storage path: the slices whose element order is the order
// body's statements happened to run in.
func orderedAppends(info *types.Info, body ast.Node, visit func(asg *ast.AssignStmt, target string)) {
	ast.Inspect(body, func(m ast.Node) bool {
		asg, ok := m.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		// Appending to a map element keyed by the loop key is
		// order-insensitive grouping, not ordered output.
		if ix, ok := asg.Lhs[0].(*ast.IndexExpr); ok {
			if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				return true
			}
		}
		visit(asg, rootString(asg.Lhs[0]))
		return true
	})
}
