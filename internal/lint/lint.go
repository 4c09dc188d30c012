// Package lint is elsavet: a suite of go/analysis analyzers that turn the
// pipeline's hardest-won properties — zero-allocation hot kernels,
// bit-identical parallel training, cancellable streaming stages, sound
// lock usage — into compile-time contracts instead of benchmark
// aspirations.
//
// The suite ships eleven analyzers:
//
//   - elsahotpath: the vet-time syntactic screen over //elsa:hotpath
//     functions for constructs that cost an allocation whatever escape
//     analysis concludes (append growth, fmt formatting, goroutine
//     launches, implicit interface conversions, string<->[]byte
//     conversions, make(chan), make(map) and map literals).
//   - elsadeterminism: the training packages (sig, gradual, correlate,
//     predict) must not read wall clocks, use the global math/rand
//     source, or let map iteration order escape into ordered output
//     without a sort.
//   - elsactxflow: in any function that takes a context.Context, every
//     blocking channel operation must live in a select that also waits
//     on ctx.Done() (or have a default case); bare sends, bare
//     receives and channel ranges are flagged.
//   - elsachan: models every channel as a cell with send/recv/close
//     edges — through goroutine closures and struct fields — and flags
//     double-close, close-by-non-owner (ownership = creating scope or
//     an //elsa:chanowner annotation), sends reachable after a close,
//     and goroutines whose only exit is a blocking channel op with no
//     guaranteed counterpart and no ctx.Done() select. Its goroutine
//     checks also flag WaitGroup.Add called inside the goroutine it
//     guards, and goroutines launched from cancellable functions with
//     neither a ctx reference nor a WaitGroup join. Locks copied by
//     value are stock go vet's copylocks, which CI runs as
//     `go vet ./...`.
//   - elsalockorder: builds the interprocedural lock-acquisition graph
//     (locks held at each acquire, propagated through calls via
//     LockOrderFact/LockGraphFact) and reports any cycle as a
//     potential deadlock with the full acquisition chain.
//   - elsaerrflow: in the serving-path packages (pipeline, ingest,
//     resilience) every err != nil branch must account for the error —
//     return it, quarantine it, or increment a stats counter.
//   - elsasnapshot: the resume-equality guard — every field of a
//     struct marked //elsa:snapshot must be handled by the
//     //elsa:snapshotter encode AND decode paths or annotated
//     //elsa:ephemeral with a reason, and every struct reachable from
//     an //elsa:snapshot-envelope root must not silently drop state
//     through unexported (encoding/json-invisible) fields.
//   - elsaatomic: a field accessed through sync/atomic anywhere in a
//     package (or, via facts, in any importing package) must never
//     also be accessed with plain loads or stores.
//   - elsastate: annotation-declared typestate protocols
//     (//elsa:state on a type, //elsa:transition and //elsa:requires
//     on its methods) verified by a may-state abstract interpreter on
//     the statement walker elsachan's send-after-close check shares —
//     no Feed after Close, snapshot-before-retire, breaker state
//     discipline — composing across packages through StateFacts.
//   - elsadetflow: the taint layer of the determinism contract —
//     wall-clock, global-rand and iteration/arrival-order values are
//     tracked through the serving path and reported only where they
//     reach prediction output, snapshot/journal bytes or exported
//     stats; //elsa:nondet-ok <reason> is the audited escape hatch.
//   - elsanolint: audits the //nolint:elsa... escape hatches themselves
//     — every suppression must name known analyzers and carry a reason.
//
// The hot-path contract is held at three depths. elsahotpath is the
// vet-time screen. Whether a make, new, composite literal, closure or
// addressed local in a kernel reaches the heap is the compiler's own
// escape analysis: TestEscapeOracle builds the module with
// -gcflags='-m -l' and fails on any "escapes to heap"/"moved to heap"
// report inside an //elsa:hotpath function that no reasoned
// //nolint:elsahotpath covers. What a kernel allocates when it runs is
// the AllocsPerRun tests beside the kernels and the benchmark's
// pipeline.allocs_per_record row.
//
// Suppression: a finding is silenced by a //nolint:<name> comment on the
// finding's line or the line above, where <name> is the analyzer name or
// the blanket "elsa". A reason is mandatory, introduced by "//" or "--":
//
//	//nolint:elsahotpath // grows once, then reused across all pairs
//
// elsanolint rejects reasonless or unknown-name suppressions, so the
// escape hatch cannot silently rot.
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the full elsavet suite, in stable order.
var Analyzers = []*analysis.Analyzer{
	HotPathAnalyzer,
	DeterminismAnalyzer,
	CtxFlowAnalyzer,
	ChanAnalyzer,
	LockOrderAnalyzer,
	ErrFlowAnalyzer,
	SnapshotAnalyzer,
	AtomicAnalyzer,
	StateAnalyzer,
	DetFlowAnalyzer,
	NolintAnalyzer,
}

// analyzerNames returns the set of valid //nolint targets. Spelled as a
// literal (not derived from Analyzers) to avoid an initialization cycle
// through NolintAnalyzer; TestAnalyzerNamesMatchRegistry holds the two
// equal.
func analyzerNames() map[string]bool {
	return map[string]bool{
		"elsa":            true,
		"elsahotpath":     true,
		"elsadeterminism": true,
		"elsactxflow":     true,
		"elsachan":        true,
		"elsalockorder":   true,
		"elsaerrflow":     true,
		"elsasnapshot":    true,
		"elsaatomic":      true,
		"elsastate":       true,
		"elsadetflow":     true,
		"elsanolint":      true,
	}
}

// inScope reports whether pkg is named in a comma-separated package
// list — the scope flag of the package-scoped analyzers.
func inScope(list string, pkg *types.Package) bool {
	for _, p := range strings.Split(list, ",") {
		if strings.TrimSpace(p) == pkg.Name() {
			return true
		}
	}
	return false
}

// hotPathDirective is the annotation marking a function as a verified
// allocation-free kernel.
const hotPathDirective = "//elsa:hotpath"

// isHotPath reports whether fn carries the //elsa:hotpath directive in
// its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasDirective(fn.Doc, hotPathDirective)
}

// hasDirective reports whether a comment group carries the given
// //elsa:... directive, matched as a whole word so //elsa:snapshot
// does not match //elsa:snapshot-envelope.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	_, ok := directiveArg(cg, directive)
	return ok
}

// directiveArg returns the text following a directive comment (""
// when the directive stands alone) and whether the directive appears.
func directiveArg(cg *ast.CommentGroup, directive string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if arg, ok := directiveText(c.Text, directive); ok {
			return arg, true
		}
	}
	return "", false
}

// directiveText matches one comment's text against a directive,
// returning the trailing argument.
func directiveText(text, directive string) (string, bool) {
	if text == directive {
		return "", true
	}
	if strings.HasPrefix(text, directive+" ") {
		return strings.TrimSpace(text[len(directive)+1:]), true
	}
	return "", false
}

// typeSpecDoc returns the comment group documenting ts: its own, or
// the enclosing declaration's in the common single-spec form.
func typeSpecDoc(gd *ast.GenDecl, ts *ast.TypeSpec) *ast.CommentGroup {
	if ts.Doc == nil && len(gd.Specs) == 1 {
		return gd.Doc
	}
	return ts.Doc
}

// lineIndex holds what parse extracted from each comment of a pass, by
// file and line: the lookup behind every annotation that applies to
// the code on its own line or the line below (//nolint,
// //elsa:chanowner on a go statement, //elsa:nondet-ok).
type lineIndex[T any] struct {
	fset    *token.FileSet
	entries map[string]map[int][]T // filename -> line -> parsed comments
}

func indexComments[T any](fset *token.FileSet, files []*ast.File, parse func(*ast.Comment) (T, bool)) *lineIndex[T] {
	ix := &lineIndex[T]{fset: fset, entries: make(map[string]map[int][]T)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				e, ok := parse(c)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				byLine := ix.entries[p.Filename]
				if byLine == nil {
					byLine = make(map[int][]T)
					ix.entries[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], e)
			}
		}
	}
	return ix
}

// near returns the entries covering pos: those on its line (inline
// trailing comment), then those on the line above (standalone comment
// over the statement).
func (ix *lineIndex[T]) near(pos token.Pos) []T {
	p := ix.fset.Position(pos)
	byLine := ix.entries[p.Filename]
	return append(append([]T(nil), byLine[p.Line]...), byLine[p.Line-1]...)
}

// nolintEntry is one parsed //nolint comment.
type nolintEntry struct {
	names  []string // analyzer names listed after the colon
	reason string   // text after the "//" or "--" separator, trimmed
}

// parseNolint decodes a "//nolint:..." comment, returning ok=false for
// comments that are not nolint directives at all.
func parseNolint(text string) (e nolintEntry, ok bool) {
	const prefix = "//nolint:"
	if !strings.HasPrefix(text, prefix) {
		return e, false
	}
	body := text[len(prefix):]
	// The reason is introduced by a second "//" or a "--".
	if i := strings.Index(body, "//"); i >= 0 {
		e.reason = strings.TrimSpace(body[i+2:])
		body = body[:i]
	} else if i := strings.Index(body, "--"); i >= 0 {
		e.reason = strings.TrimSpace(body[i+2:])
		body = body[:i]
	}
	for _, n := range strings.Split(body, ",") {
		if n = strings.TrimSpace(n); n != "" {
			e.names = append(e.names, n)
		}
	}
	return e, true
}

// suppressor indexes every //nolint comment of the pass.
type suppressor struct {
	nolints *lineIndex[nolintEntry]
	aliases []string // extra analyzer names accepted as suppressing this pass
}

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	return &suppressor{nolints: indexComments(fset, files, func(c *ast.Comment) (nolintEntry, bool) {
		return parseNolint(c.Text)
	})}
}

// suppressed reports whether a finding of analyzer name at pos is
// covered by a well-formed nolint entry. Reasonless entries never
// suppress: elsanolint flags them and the original finding stays live.
func (s *suppressor) suppressed(name string, pos token.Pos) bool {
	for _, e := range s.nolints.near(pos) {
		if e.reason == "" {
			continue
		}
		for _, n := range e.names {
			if n == name || n == "elsa" {
				return true
			}
			for _, a := range s.aliases {
				if n == a {
					return true
				}
			}
		}
	}
	return false
}

// reporter wraps pass.Reportf with nolint suppression for the pass's own
// analyzer name.
type reporter struct {
	pass *analysis.Pass
	sup  *suppressor
}

func newReporter(pass *analysis.Pass) *reporter {
	return &reporter{pass: pass, sup: newSuppressor(pass.Fset, pass.Files)}
}

func (r *reporter) reportf(pos token.Pos, format string, args ...interface{}) {
	if r.sup.suppressed(r.pass.Analyzer.Name, pos) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// report is reportf for a fully built diagnostic (used when the
// finding carries SuggestedFixes).
func (r *reporter) report(d analysis.Diagnostic) {
	if r.sup.suppressed(r.pass.Analyzer.Name, d.Pos) {
		return
	}
	r.pass.Report(d)
}

// inTestFile reports whether pos lands in a _test.go file.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// rootString renders the static "path" of an expression (identifiers,
// selectors, indexes stripped of their index) so two mentions of the
// same storage compare equal: `s.out[i]` and `s.out[j]` both render
// "s.out". Unrenderable expressions return "".
func rootString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := rootString(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		return rootString(e.X)
	case *ast.SliceExpr:
		return rootString(e.X)
	case *ast.StarExpr:
		return rootString(e.X)
	case *ast.ParenExpr:
		return rootString(e.X)
	}
	return ""
}

// objOf resolves an identifier to the object it defines or uses.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// constInt64 extracts an int64 from a constant expression value.
func constInt64(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

// declaredOutside reports whether id names a variable declared outside
// the function literal lit, i.e. one the closure captures.
func declaredOutside(info *types.Info, id *ast.Ident, lit *ast.FuncLit) bool {
	obj := objOf(info, id)
	return obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End())
}

// forEachChild calls fn on each direct child of n, in source order: the
// "anything else" arm of the statement walkers that handle some node
// kinds themselves and recurse through the rest.
func forEachChild(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n {
			return true
		}
		if m != nil {
			fn(m)
		}
		return false
	})
}

// cellTable resolves storage expressions to the per-function cells of
// the flow-sensitive analyzers: an identifier by its types.Object, a
// deeper path (s.done, *p, xs[i]) by its rootString, so two mentions of
// the same storage reach the same cell.
type cellTable[C any] struct {
	byObj  map[types.Object]*C
	byPath map[string]*C
}

func newCellTable[C any]() cellTable[C] {
	return cellTable[C]{byObj: make(map[types.Object]*C), byPath: make(map[string]*C)}
}

// lookup returns e's cell, building it with mk on first sight; nil
// when e resolves to no object or path.
func (t cellTable[C]) lookup(info *types.Info, e ast.Expr, mk func(name string) *C) *C {
	if id, ok := e.(*ast.Ident); ok {
		obj := objOf(info, id)
		if obj == nil {
			return nil
		}
		c, ok := t.byObj[obj]
		if !ok {
			c = mk(id.Name)
			t.byObj[obj] = c
		}
		return c
	}
	root := rootString(e)
	if root == "" {
		return nil
	}
	c, ok := t.byPath[root]
	if !ok {
		c = mk(root)
		t.byPath[root] = c
	}
	return c
}
