package lint

// A minimal analysistest: golang.org/x/tools/go/analysis/analysistest is
// not vendored, so fixtures are loaded with go/parser + the standalone
// driver's checkPackage and the source importer, analyzers run through
// the driver's own runSuite (the pass builder CI runs), and diagnostics
// are matched against // want "regexp" comments — the same convention
// the real analysistest uses. Suggested fixes are carried through on
// the diagnostics for tests that assert on them.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// wantRx extracts the quoted regexps of a `// want "a" "b"` comment.
var wantRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type fixture struct {
	fset  *token.FileSet
	pkg   *modulePkg
	wants map[string][]*want // "file.go:line" -> expectations
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

func loadFixture(t *testing.T, dir string) *fixture {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fx := &fixture{fset: token.NewFileSet(), wants: make(map[string][]*want)}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		f, err := parser.ParseFile(fx.fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		lines := strings.Split(string(src), "\n")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fx.fset.Position(c.Pos())
				line := pos.Line
				// A want comment alone on its line states expectations for
				// the line below (needed when the target line's trailing
				// comment is itself under test, e.g. a //nolint directive).
				if line-1 < len(lines) && strings.TrimSpace(lines[line-1]) == strings.TrimSpace(c.Text) {
					line++
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), line)
				for _, m := range wantRx.FindAllStringSubmatch(c.Text[i+len("// want "):], -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					fx.wants[key] = append(fx.wants[key], &want{rx: rx})
				}
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("fixture dir %s has no go files", dir)
	}
	fx.pkg, err = checkPackage(fx.fset, files[0].Name.Name, files, importer.ForCompiler(fx.fset, "source", nil))
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// runAnalyzers executes the analyzers over a loaded fixture, collecting
// diagnostics; facts exported by one analyzer are visible to the later
// ones (minus the gob round-trip, covered by its own test).
func runAnalyzers(t *testing.T, fx *fixture, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	var diags []analysis.Diagnostic
	err := runSuite(fx.fset, fx.pkg, analyzers, newStandaloneFacts(), func(_ *analysis.Analyzer, d analysis.Diagnostic) {
		diags = append(diags, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// runOn loads the fixture at testdata/<dir> and runs the analyzers over
// it, checking every diagnostic against the // want comments.
func runOn(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	fx := loadFixture(t, filepath.Join("testdata", dir))
	var reports []reported
	for _, d := range runAnalyzers(t, fx, analyzers) {
		pos := fx.fset.Position(d.Pos)
		reports = append(reports, reported{filepath.Base(pos.Filename), pos.Line, d.Message})
	}
	fx.check(t, reports)
}

// reported is one message a fixture's // want comments are held to.
type reported struct {
	file string // base name
	line int
	msg  string
}

// check matches reports against the fixture's // want comments: every
// report needs a want on its line, every want a report, and no report
// repeats.
func (fx *fixture) check(t *testing.T, reports []reported) {
	t.Helper()
	// Index reports by line so unmatched wants can say what WAS
	// reported there — the difference between "tweak the regexp" and
	// "rerun under a debugger".
	got := make(map[string][]string)
	seen := make(map[reported]bool)
	var problems []string
	for _, r := range reports {
		key := fmt.Sprintf("%s:%d", r.file, r.line)
		got[key] = append(got[key], r.msg)
		if seen[r] {
			problems = append(problems, fmt.Sprintf("%s: duplicate diagnostic: %s", key, r.msg))
		}
		seen[r] = true
		found := false
		for _, w := range fx.wants[key] {
			if w.rx.MatchString(r.msg) {
				w.matched, found = true, true
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: unexpected diagnostic: %s", key, r.msg))
		}
	}
	for key, ws := range fx.wants {
		for _, w := range ws {
			if w.matched {
				continue
			}
			detail := "no diagnostics on this line"
			if msgs := got[key]; len(msgs) > 0 {
				detail = "diagnostics on this line: " + strings.Join(msgs, " | ")
			}
			problems = append(problems, fmt.Sprintf("%s: expected diagnostic matching %q, got none (%s)", key, w.rx, detail))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

func TestHotPath(t *testing.T)     { runOn(t, "hotpath", HotPathAnalyzer) }
func TestSnapshot(t *testing.T)    { runOn(t, "snapshotfix", SnapshotAnalyzer) }
func TestAtomic(t *testing.T)      { runOn(t, "atomicmix", AtomicAnalyzer) }
func TestDeterminism(t *testing.T) { runOn(t, "determinism", DeterminismAnalyzer) }
func TestCtxFlow(t *testing.T)     { runOn(t, "ctxflow", CtxFlowAnalyzer) }
func TestLockSafe(t *testing.T)    { runOn(t, "locksafe", ChanAnalyzer) }
func TestChanFlow(t *testing.T)    { runOn(t, "chanflow", ChanAnalyzer) }
func TestLockOrder(t *testing.T)   { runOn(t, "lockorder", LockOrderAnalyzer) }
func TestErrFlow(t *testing.T)     { runOn(t, "errflow", ErrFlowAnalyzer) }
func TestState(t *testing.T)       { runOn(t, "state", StateAnalyzer) }
func TestDetFlow(t *testing.T)     { runOn(t, "detflow", DetFlowAnalyzer) }
func TestNolint(t *testing.T) {
	// The nolint fixture exercises suppression end to end: the package is
	// named sig so elsadeterminism applies, and the audit analyzer runs
	// alongside to flag malformed directives.
	runOn(t, "nolint", DeterminismAnalyzer, NolintAnalyzer)
}

func TestParseNolint(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		names  []string
		reason string
	}{
		{"//nolint:elsahotpath // grows once", true, []string{"elsahotpath"}, "grows once"},
		{"//nolint:elsa -- blanket, reviewed", true, []string{"elsa"}, "blanket, reviewed"},
		{"//nolint:a,b // r", true, []string{"a", "b"}, "r"},
		{"//nolint:elsahotpath", true, []string{"elsahotpath"}, ""},
		{"// ordinary comment", false, nil, ""},
	}
	for _, c := range cases {
		e, ok := parseNolint(c.text)
		if ok != c.ok {
			t.Errorf("parseNolint(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if e.reason != c.reason {
			t.Errorf("parseNolint(%q) reason = %q, want %q", c.text, e.reason, c.reason)
		}
		if fmt.Sprint(e.names) != fmt.Sprint(c.names) {
			t.Errorf("parseNolint(%q) names = %v, want %v", c.text, e.names, c.names)
		}
	}
}

// TestAnalyzerNamesMatchRegistry pins the hand-written //nolint name
// list to the analyzer registry: analyzerNames cannot be derived from
// Analyzers (initialization cycle through NolintAnalyzer), so nothing
// but this test notices an analyzer added to or dropped from one only.
func TestAnalyzerNamesMatchRegistry(t *testing.T) {
	want := map[string]bool{"elsa": true}
	for _, a := range Analyzers {
		if want[a.Name] {
			t.Errorf("analyzer name %q is registered twice", a.Name)
		}
		want[a.Name] = true
	}
	got := analyzerNames()
	for name := range want {
		if !got[name] {
			t.Errorf("analyzerNames() lacks %q: a //nolint:%s would be flagged as unknown", name, name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("analyzerNames() accepts %q, which no registered analyzer answers to", name)
		}
	}
}
