package lint

// The escape oracle is the flow depth of the //elsa:hotpath contract.
// Whether a make, new, composite literal, closure or addressed local
// reaches the heap is decided by the compiler's escape analysis, and
// the compiler will say what it decided: `go build -gcflags='-m -l'`
// prints an "escapes to heap" or "moved to heap:" line for every site
// it heap-allocates. The oracle maps those lines onto the line ranges
// of //elsa:hotpath functions and fails on any that a reasoned
// //nolint:elsahotpath (same line or the line above, the suppressor's
// rule) does not cover. Inlining is off so that a callee's allocation
// is charged to the callee only; the build cache replays the report,
// so a warm run costs a cache lookup per package.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// escapeSite is one heap allocation the compiler reported inside an
// //elsa:hotpath function.
type escapeSite struct {
	file       string // as the compiler printed it, relative to the module root
	line, col  int
	msg        string // "make([]int, n) escapes to heap", "moved to heap: s"
	fn         string // the enclosing hot-path function
	suppressed bool   // covered by a reasoned //nolint:elsahotpath
}

func (s escapeSite) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (in %s)", s.file, s.line, s.col, s.msg, s.fn)
}

var escapeLineRx = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.* escapes to heap|moved to heap: .*)$`)

// escapeOracle builds every package of the module at root with escape
// diagnostics on and returns the heap reports that land inside
// //elsa:hotpath functions, in the compiler's order. A missing go tool
// or a compile error fails the test with the build output.
func escapeOracle(t *testing.T, root string) []escapeSite {
	t.Helper()
	cmd := exec.Command("go", "build", "-gcflags=-m -l", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags='-m -l' ./... in %s: %v\n%s", root, err, out)
	}

	// hotFile is one source file's //elsa:hotpath functions and
	// //nolint comments, parsed when the compiler first names the file.
	type hotFile struct {
		tf  *token.File
		sup *suppressor
		fns []*ast.FuncDecl
	}
	fset := token.NewFileSet()
	parsed := make(map[string]*hotFile)
	hotFuncs := func(file string) *hotFile {
		if hf, ok := parsed[file]; ok {
			return hf
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, file), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		hf := &hotFile{tf: fset.File(f.Pos()), sup: newSuppressor(fset, []*ast.File{f})}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && isHotPath(fn) {
				hf.fns = append(hf.fns, fn)
			}
		}
		parsed[file] = hf
		return hf
	}

	var sites []escapeSite
	// A generic function reports once per instantiation, and again from each
	// importing package that instantiates it: one site is one position.
	seen := make(map[string]bool)
	for _, l := range strings.Split(string(out), "\n") {
		m := escapeLineRx.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		m[1] = filepath.Clean(m[1])
		pos := strings.Join(m[1:4], ":")
		if seen[pos] {
			continue
		}
		seen[pos] = true
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		hf := hotFuncs(m[1])
		for _, fn := range hf.fns {
			if line >= fset.Position(fn.Pos()).Line && line <= fset.Position(fn.End()).Line {
				sites = append(sites, escapeSite{
					file: m[1], line: line, col: col, msg: m[4], fn: fn.Name.Name,
					suppressed: hf.sup.suppressed(HotPathAnalyzer.Name, hf.tf.LineStart(line)),
				})
			}
		}
	}
	return sites
}

// TestEscapeOracle holds the live tree to the contract: every heap
// allocation the compiler reports inside an //elsa:hotpath function
// carries a reasoned //nolint:elsahotpath.
func TestEscapeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module; skipped in -short")
	}
	for _, s := range escapeOracle(t, filepath.Join("..", "..")) {
		if s.suppressed {
			t.Logf("suppressed: %s", s)
			continue
		}
		t.Errorf("%s: fix it, or //nolint:elsahotpath with the reason the allocation is amortised", s)
	}
}

// allocModule lays testdata/alloc out as a module of its own in a temp
// directory — go build ./... does not descend into testdata — with
// edit, if any, applied to the fixture's source.
func allocModule(t *testing.T, edit func(src string) string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "alloc", "alloc.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	if edit != nil {
		src = edit(src)
	}
	root := t.TempDir()
	for name, data := range map[string]string{
		"go.mod":   "module example.com/alloc\n\ngo 1.22\n",
		"alloc.go": src,
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// unsuppressed renders the oracle's live findings as fixture reports.
func unsuppressed(sites []escapeSite) []reported {
	var out []reported
	for _, s := range sites {
		if !s.suppressed {
			out = append(out, reported{filepath.Base(s.file), s.line, s.msg})
		}
	}
	return out
}

// TestAlloc runs the oracle over its seeded fixture: every // want in
// testdata/alloc is a compiler report inside a hot-path function, the
// clean shapes and the reasoned suppression stay silent.
func TestAlloc(t *testing.T) {
	fx := loadFixture(t, filepath.Join("testdata", "alloc"))
	fx.check(t, unsuppressed(escapeOracle(t, allocModule(t, nil))))
}

// TestEscapeOracleMutationGuard proves the oracle bites: the fixture's
// clean shapes pass, and each of the two ways a kernel can start
// allocating unnoticed — a suppression losing its reason, a new
// escaping allocation — is reported.
func TestEscapeOracleMutationGuard(t *testing.T) {
	inFunc := func(sites []escapeSite, fn string) []escapeSite {
		var out []escapeSite
		for _, s := range sites {
			if s.fn == fn {
				out = append(out, s)
			}
		}
		return out
	}

	// Control: nothing is reported in the clean shapes, and the legacy
	// growth site is seen but suppressed.
	control := escapeOracle(t, allocModule(t, nil))
	for _, fn := range []string{"provenLocal", "addrStaysLocal"} {
		if got := inFunc(control, fn); len(got) != 0 {
			t.Errorf("%s is stack-allocated throughout, oracle reported: %v", fn, got)
		}
	}
	if got := inFunc(control, "suppressedLegacy"); len(got) != 1 || !got[0].suppressed {
		t.Fatalf("suppressedLegacy: want one suppressed report, got: %v", got)
	}

	// Mutant 1: the suppression loses its reason, so it suppresses nothing.
	const reasoned = "//nolint:elsahotpath // amortized: grows once to capacity, reused per call"
	stripped := escapeOracle(t, allocModule(t, func(src string) string {
		if !strings.Contains(src, reasoned) {
			t.Fatalf("fixture no longer carries %q", reasoned)
		}
		return strings.Replace(src, reasoned, "//nolint:elsahotpath", 1)
	}))
	if got := inFunc(stripped, "suppressedLegacy"); len(got) != 1 || got[0].suppressed {
		t.Errorf("reasonless //nolint must not suppress; suppressedLegacy reports: %v", got)
	}

	// Mutant 2: a hot-path function grows an escaping allocation.
	injected := escapeOracle(t, allocModule(t, func(src string) string {
		return src + "\n//elsa:hotpath\nfunc injected(n int) []int {\n\treturn make([]int, n)\n}\n"
	}))
	got := inFunc(injected, "injected")
	if len(got) != 1 || got[0].suppressed || !strings.Contains(got[0].msg, "make([]int, n) escapes to heap") {
		t.Errorf("injected `return make([]int, n)` must be reported, got: %v", got)
	}
}
