package lint

// standalone.go is the -fix/-diff driver behind cmd/elsavet. The
// vendored unitchecker predates SuggestedFix application, and go vet
// gives analyzers no way to rewrite files anyway — so elsavet grows a
// second mode: load the module from source (shared FileSet, one
// typechecking universe, so fact identity holds across packages), run
// the suite in dependency order, and either print findings, apply
// their TextEdits in place (-fix), or print the would-be edits as a
// diff and fail if any exist (-diff, the CI dry-run gate).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// modulePkg is one typechecked package of the analyzed module.
type modulePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleLoader typechecks module packages from source. It implements
// types.Importer: module-internal import paths resolve through its own
// cache (keeping types.Object identity stable across packages, which
// facts require), everything else through the source importer, which
// handles the vendor directory.
type moduleLoader struct {
	fset    *token.FileSet
	modPath string
	root    string
	pkgs    map[string]*modulePkg // by import path
	loading map[string]bool
	ext     types.Importer
}

func newModuleLoader(root, modPath string) *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{
		fset:    fset,
		modPath: modPath,
		root:    root,
		pkgs:    make(map[string]*modulePkg),
		loading: make(map[string]bool),
		ext:     importer.ForCompiler(fset, "source", nil),
	}
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.ext.Import(path)
}

func (l *moduleLoader) loadPath(path string) (*modulePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect //go:build constraints and _GOOS/_GOARCH suffixes for the
		// host platform, as the build does — otherwise mutually exclusive
		// files typecheck as redeclarations.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable go files in %s", dir)
	}
	p, err := checkPackage(l.fset, path, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// checkPackage typechecks one package's parsed files, recording
// everything the analyzers read off types.Info.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*modulePkg, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &modulePkg{path: path, files: files, pkg: pkg, info: info}, nil
}

// StandaloneOptions configures a RunStandalone invocation.
type StandaloneOptions struct {
	Root      string // module root (directory containing go.mod)
	Fix       bool   // apply suggested fixes in place
	Diff      bool   // print suggested fixes as a diff instead of applying
	JSON      bool   // emit findings as a JSON array instead of text lines
	Analyzers []*analysis.Analyzer
}

// jsonFinding is the machine-readable shape of one finding, stable for
// CI consumers (the GitHub problem matcher parses the text form; the
// JSON form feeds anything that wants structure).
type jsonFinding struct {
	Package  string `json:"package"`
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

// Finding is one reported diagnostic plus its origin.
type Finding struct {
	Package  string // import path of the analyzed package
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []analysis.SuggestedFix
}

// RunStandalone analyzes every package of the module and returns the
// findings and the number of files that have (or had, under -fix)
// applicable suggested fixes. Output (findings, diffs, fix notices)
// goes to w.
func RunStandalone(opts StandaloneOptions, w io.Writer) (findings []Finding, fixedFiles int, err error) {
	modPath, err := readModulePath(opts.Root)
	if err != nil {
		return nil, 0, err
	}
	loader := newModuleLoader(opts.Root, modPath)

	dirs, err := packageDirs(opts.Root)
	if err != nil {
		return nil, 0, err
	}
	var pkgs []*modulePkg
	for _, dir := range dirs {
		rel, err := filepath.Rel(opts.Root, dir)
		if err != nil {
			return nil, 0, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		p, err := loader.loadPath(path)
		if err != nil {
			return nil, 0, err
		}
		pkgs = append(pkgs, p)
	}
	pkgs = sortByImports(pkgs)

	store := newStandaloneFacts()
	for _, p := range pkgs {
		err := runSuite(loader.fset, p, opts.Analyzers, store, func(a *analysis.Analyzer, d analysis.Diagnostic) {
			findings = append(findings, Finding{
				Package:  p.path,
				Analyzer: a.Name,
				Pos:      loader.fset.Position(d.Pos),
				Message:  d.Message,
				Fixes:    d.SuggestedFixes,
			})
		})
		if err != nil {
			return nil, 0, err
		}
	}
	// Byte-stable order for CI artifact diffing: (package, file, line,
	// column, analyzer, message). Position alone is not a total order —
	// two analyzers can fire on the same token, and map-ordered package
	// walks must not leak into the output.
	sort.Slice(findings, func(i, j int) bool {
		a, b := &findings[i], &findings[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if opts.JSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Package:  f.Package,
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
				Fixable:  len(f.Fixes) > 0,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return nil, 0, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(w, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
		}
	}
	if opts.Fix || opts.Diff {
		fixedFiles, err = applyFixes(loader.fset, findings, opts.Fix, w)
		if err != nil {
			return nil, 0, err
		}
	}
	return findings, fixedFiles, nil
}

// readModulePath extracts the module path from root/go.mod.
func readModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// packageDirs walks the module for directories holding non-test go
// files, skipping vendor, testdata and hidden directories, and nested
// modules (a sub-directory with its own go.mod), where `go vet ./...`
// stops too. WalkDir interleaves a directory's files around its
// subdirectories, so dedup needs a set, not an adjacency check.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// sortByImports orders packages so every package follows its
// module-internal dependencies — the order facts flow. Duplicate
// entries collapse: the returned slice holds each package once.
func sortByImports(pkgs []*modulePkg) []*modulePkg {
	index := make(map[string]*modulePkg, len(pkgs))
	for _, p := range pkgs {
		index[p.path] = p
	}
	var order []*modulePkg
	visited := make(map[string]bool)
	var visit func(p *modulePkg)
	visit = func(p *modulePkg) {
		if visited[p.path] {
			return
		}
		visited[p.path] = true
		for _, imp := range p.pkg.Imports() {
			if dep, ok := index[imp.Path()]; ok {
				visit(dep)
			}
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// standaloneFacts is the cross-package fact store of the standalone
// driver. Object identity is consistent because every package shares
// the moduleLoader's typechecking universe.
type standaloneFacts struct {
	objs map[types.Object][]analysis.Fact
	pkgs map[*types.Package][]analysis.Fact
}

func newStandaloneFacts() *standaloneFacts {
	return &standaloneFacts{
		objs: make(map[types.Object][]analysis.Fact),
		pkgs: make(map[*types.Package][]analysis.Fact),
	}
}

// runSuite executes the analyzers over one package, handing each
// diagnostic to report. It is the one place an analysis.Pass is built:
// the standalone driver and the fixture harness both run through it.
func runSuite(fset *token.FileSet, p *modulePkg, analyzers []*analysis.Analyzer, store *standaloneFacts,
	report func(*analysis.Analyzer, analysis.Diagnostic)) error {
	results := map[*analysis.Analyzer]interface{}{
		inspect.Analyzer: inspector.New(p.files),
	}
	for _, a := range analyzers {
		if a == inspect.Analyzer {
			continue
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      p.files,
			Pkg:        p.pkg,
			TypesInfo:  p.info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   results,
			Report:     func(d analysis.Diagnostic) { report(a, d) },
			ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
				store.objs[obj] = setStandaloneFact(store.objs[obj], fact)
			},
			ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
				return getStandaloneFact(store.objs[obj], fact)
			},
			ExportPackageFact: func(fact analysis.Fact) {
				store.pkgs[p.pkg] = setStandaloneFact(store.pkgs[p.pkg], fact)
			},
			ImportPackageFact: func(pkg *types.Package, fact analysis.Fact) bool {
				return getStandaloneFact(store.pkgs[pkg], fact)
			},
			AllObjectFacts:  func() []analysis.ObjectFact { return nil },
			AllPackageFacts: func() []analysis.PackageFact { return nil },
		}
		if _, err := a.Run(pass); err != nil {
			return fmt.Errorf("%s on %s: %w", a.Name, p.path, err)
		}
	}
	return nil
}

func setStandaloneFact(facts []analysis.Fact, fact analysis.Fact) []analysis.Fact {
	t := reflect.TypeOf(fact)
	for i, f := range facts {
		if reflect.TypeOf(f) == t {
			facts[i] = fact
			return facts
		}
	}
	return append(facts, fact)
}

func getStandaloneFact(facts []analysis.Fact, fact analysis.Fact) bool {
	t := reflect.TypeOf(fact)
	for _, f := range facts {
		if reflect.TypeOf(f) == t {
			// The caller's pointer receives the stored value; facts are
			// immutable once exported, so a shallow copy suffices.
			reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// applyFixes collects every TextEdit, resolves overlaps (first edit
// wins), and either rewrites the files (fix=true) or prints the edits
// as per-file hunks. Returns the number of files with applicable
// edits.
func applyFixes(fset *token.FileSet, findings []Finding, fix bool, w io.Writer) (int, error) {
	type edit struct {
		start, end int
		text       []byte
	}
	perFile := make(map[string][]edit)
	for _, f := range findings {
		for _, sf := range f.Fixes {
			for _, te := range sf.TextEdits {
				start := fset.Position(te.Pos)
				end := start
				if te.End.IsValid() {
					end = fset.Position(te.End)
				}
				perFile[start.Filename] = append(perFile[start.Filename], edit{start.Offset, end.Offset, te.NewText})
			}
		}
	}
	files := make([]string, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Strings(files)

	applied := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return applied, err
		}
		edits := perFile[file]
		sort.Slice(edits, func(i, j int) bool { return edits[i].start < edits[j].start })
		var out bytes.Buffer
		last := 0
		any := false
		for _, e := range edits {
			if e.start < last || e.end > len(src) {
				continue // overlapping or out-of-range edit: first one won
			}
			if !fix {
				printHunk(w, file, src, e.start, e.end, e.text)
			}
			out.Write(src[last:e.start])
			out.Write(e.text)
			last = e.end
			any = true
		}
		if !any {
			continue
		}
		applied++
		out.Write(src[last:])
		if fix {
			if err := os.WriteFile(file, out.Bytes(), 0o644); err != nil {
				return applied, err
			}
			fmt.Fprintf(w, "fixed %s\n", file)
		}
	}
	return applied, nil
}

// printHunk renders one edit as a minimal unified-diff hunk.
func printHunk(w io.Writer, file string, src []byte, start, end int, text []byte) {
	lineStart := bytes.LastIndexByte(src[:start], '\n') + 1
	lineEnd := end
	if i := bytes.IndexByte(src[end:], '\n'); i >= 0 {
		lineEnd = end + i
	} else {
		lineEnd = len(src)
	}
	firstLine := 1 + bytes.Count(src[:lineStart], []byte("\n"))
	fmt.Fprintf(w, "--- %s:%d\n", file, firstLine)
	for _, l := range strings.Split(string(src[lineStart:lineEnd]), "\n") {
		fmt.Fprintf(w, "-%s\n", l)
	}
	patched := string(src[lineStart:start]) + string(text) + string(src[end:lineEnd])
	for _, l := range strings.Split(patched, "\n") {
		fmt.Fprintf(w, "+%s\n", l)
	}
}
