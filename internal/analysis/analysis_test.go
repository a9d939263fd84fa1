package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test binary: dependency type-checking (fmt,
// os, time, ...) is the expensive part and is shared across fixtures.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

func loadFixture(t *testing.T, name string) *Unit {
	t.Helper()
	u, err := sharedLoader(t).LoadUnit(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadUnit(%s): %v", name, err)
	}
	return u
}

// wantAt is one expected diagnostic: a regexp that must match a finding
// on the given line of the fixture.
type wantAt struct {
	line int
	rx   string
}

var wantCommentRx = regexp.MustCompile("`([^`]+)`")

// collectWants extracts `// want `rx“ comments, keyed by line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []wantAt {
	t.Helper()
	var wants []wantAt
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				ms := wantCommentRx.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", fset.Position(c.Pos()), c.Text)
				}
				for _, m := range ms {
					wants = append(wants, wantAt{line: fset.Position(c.Pos()).Line, rx: m[1]})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the passes over a fixture and matches the findings
// against its want comments plus any extra expectations.
func checkFixture(t *testing.T, name string, opt Options, extra ...wantAt) []Diagnostic {
	t.Helper()
	u := loadFixture(t, name)
	diags, err := RunUnit(u, opt)
	if err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	wants := append(collectWants(t, u.Fset, u.Files), extra...)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.line != d.Line {
				continue
			}
			rx, err := regexp.Compile(w.rx)
			if err != nil {
				t.Fatalf("bad want regexp %q: %v", w.rx, err)
			}
			if rx.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s:%d: [%s] %s", d.File, d.Line, d.Pass, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at line %d matching %q", w.line, w.rx)
		}
	}
	return diags
}

func TestDetNonDetFixture(t *testing.T) {
	diags := checkFixture(t, "detnondet", Options{Passes: []string{"detnondet"}})
	if len(diags) == 0 {
		t.Fatal("detnondet fixture produced no findings; the pass is dead")
	}
}

func TestHotAllocFixture(t *testing.T) {
	diags := checkFixture(t, "hotalloc", Options{Passes: []string{"hotalloc"}})
	if len(diags) == 0 {
		t.Fatal("hotalloc fixture produced no findings; the pass is dead")
	}
}

func TestObsGuardFixture(t *testing.T) {
	diags := checkFixture(t, "obsguard", Options{Passes: []string{"obsguard"}})
	if len(diags) == 0 {
		t.Fatal("obsguard fixture produced no findings; the pass is dead")
	}
}

func TestDetSeedFixture(t *testing.T) {
	diags := checkFixture(t, "detseed", Options{Passes: []string{"detseed"}})
	if len(diags) == 0 {
		t.Fatal("detseed fixture produced no findings; the pass is dead")
	}
}

// TestEffectSummaries drives the summary engine directly over the
// shapes the passes lean on: recursion (self and mutual), method
// values, and interface dispatch widened over visible implementors.
func TestEffectSummaries(t *testing.T) {
	u := loadFixture(t, "effects")
	sum := func(name string) *Summary {
		t.Helper()
		for _, fn := range funcDecls(u) {
			if fn.decl.Name.Name == name {
				s := u.SummaryForDecl(fn.decl)
				if s == nil {
					t.Fatalf("no summary for %s", name)
				}
				return s
			}
		}
		t.Fatalf("no func %s in effects fixture", name)
		return nil
	}
	if s := sum("pure"); s.Bits != 0 {
		t.Errorf("pure: unexpected effects %b", s.Bits)
	}
	if s := sum("recurse"); s.Bits&EffWriteGlobal == 0 {
		t.Error("recurse: global write lost through self-recursion")
	}
	if s := sum("even"); s.Bits&EffWriteGlobal == 0 {
		t.Error("even: global write lost through mutual recursion")
	}
	if s := sum("methodValue"); s.Bits&EffWriteGlobal == 0 {
		t.Error("methodValue: bound method's global write lost")
	}
	s := sum("dispatch")
	if s.Bits&EffIO == 0 {
		t.Error("dispatch: interface widening missed dirty.do's I/O")
	}
	if c := s.Cause(EffIO); c == nil || !strings.Contains(causeText(u.Fset, c), "do") {
		t.Errorf("dispatch: cause chain does not name the dispatched method: %v", c)
	}
}

// TestBuildTagFixture pins file selection: build tags gate analysis of
// constrained files, and _test.go files are never analyzed under any
// tag set.
func TestBuildTagFixture(t *testing.T) {
	// Default context: gated.go (behind the rtmvetfixture tag) and
	// a_test.go are invisible, so only a.go's finding appears.
	diags := checkFixture(t, "buildtag", Options{Passes: []string{"detnondet"}})
	for _, d := range diags {
		if strings.Contains(d.File, "gated.go") || strings.Contains(d.File, "_test.go") {
			t.Errorf("default load analyzed excluded file: %s", d.File)
		}
	}
	if len(diags) != 1 {
		t.Errorf("default load: want 1 finding (a.go only), got %d", len(diags))
	}

	// Tagged loader (fresh: tags must be set before any load): gated.go
	// joins the unit and brings its finding; a_test.go still does not.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.SetBuildTags([]string{"rtmvetfixture"})
	u, err := l.LoadUnit(filepath.Join("testdata", "src", "buildtag"))
	if err != nil {
		t.Fatalf("LoadUnit: %v", err)
	}
	tagged, err := RunUnit(u, Options{Passes: []string{"detnondet"}})
	if err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	gated := false
	for _, d := range tagged {
		if strings.Contains(d.File, "gated.go") {
			gated = true
		}
		if strings.Contains(d.File, "_test.go") {
			t.Errorf("tagged load analyzed a _test.go file: %s", d.File)
		}
	}
	if !gated {
		t.Error("tagged load did not analyze gated.go")
	}
	if len(tagged) != 2 {
		t.Errorf("tagged load: want 2 findings (a.go + gated.go), got %d", len(tagged))
	}
}

// TestTxnSafeFixture is the regression gate for the PR 6 yada bug: a
// host-side counter bumped in a helper reached from an atomic body must
// be reported, and the finding must carry the interprocedural chain
// (atomic body -> helper -> write), not just the root line.
func TestTxnSafeFixture(t *testing.T) {
	diags := checkFixture(t, "txnsafe", Options{Passes: []string{"txnsafe"}})
	if len(diags) == 0 {
		t.Fatal("txnsafe fixture produced no findings; the pass is dead")
	}
	chain := false
	for _, d := range diags {
		if strings.Contains(d.Message, "call to addElem") && strings.Contains(d.Message, " -> ") {
			chain = true
		}
	}
	if !chain {
		t.Error("no finding reports the interprocedural chain through addElem")
	}
}

// TestShardFreezeFixture: mid-epoch helpers reaching boundary-only APIs
// are reported at the annotated root with the offending call chain.
func TestShardFreezeFixture(t *testing.T) {
	diags := checkFixture(t, "shardfreeze", Options{Passes: []string{"shardfreeze"}})
	if len(diags) == 0 {
		t.Fatal("shardfreeze fixture produced no findings; the pass is dead")
	}
}

// TestSuppressFixture: a bare ignore is itself a diagnostic (its line
// number is found dynamically) and does not suppress the finding it sits
// on; reasoned ignores in leading and trailing position both suppress.
func TestSuppressFixture(t *testing.T) {
	u := loadFixture(t, "suppress")
	var bareLine int
	for _, f := range u.Files {
		for _, ig := range ignoresIn(u.Fset, f) {
			if ig.reason == "" {
				bareLine = u.Fset.Position(ig.pos).Line
			}
		}
	}
	if bareLine == 0 {
		t.Fatal("no bare ignore in suppress fixture")
	}
	checkFixture(t, "suppress", Options{Passes: []string{"detnondet"}},
		wantAt{line: bareLine, rx: "without a reason"})
}

// TestGeneratedSkipped: generated files produce no diagnostics at all,
// not even for bare ignores.
func TestGeneratedSkipped(t *testing.T) {
	u := loadFixture(t, "generated")
	diags, err := RunUnit(u, Options{})
	if err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("generated file produced diagnostics: %v", diags)
	}
}

// TestFixMapRange: -fix rewrites both sortable shapes and the result
// matches the committed golden file and still parses.
func TestFixMapRange(t *testing.T) {
	u := loadFixture(t, "fixmap")
	diags, err := RunUnit(u, Options{Passes: []string{"detnondet"}})
	if err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	nfix := 0
	for _, d := range diags {
		if d.fix != nil {
			nfix++
		}
	}
	if nfix != 2 {
		t.Fatalf("expected 2 fixable findings, got %d (of %d total)", nfix, len(diags))
	}
	previews, err := FixPreview(u, diags)
	if err != nil {
		t.Fatalf("FixPreview: %v", err)
	}
	if len(previews) != 1 {
		t.Fatalf("expected 1 rewritten file, got %d", len(previews))
	}
	for name, got := range previews {
		want, err := os.ReadFile(name + ".golden")
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("fix output differs from %s.golden:\n--- got ---\n%s", name, got)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), name, got, parser.ParseComments); err != nil {
			t.Errorf("fix output does not parse: %v", err)
		}
	}
}

// TestExpandSkipsTestdata: pattern walks never descend into testdata (or
// hidden/underscore directories), so fixtures stay out of real runs.
func TestExpandSkipsTestdata(t *testing.T) {
	l := sharedLoader(t)
	dirs, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand leaked testdata dir %s", d)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("Expand found no packages")
	}
}

// TestPassSelection: unknown names error; -passes runs only the named
// passes.
func TestPassSelection(t *testing.T) {
	u := loadFixture(t, "detseed")
	if _, err := RunUnit(u, Options{Passes: []string{"nope"}}); err == nil {
		t.Error("unknown pass name accepted")
	}
	diags, err := RunUnit(u, Options{Passes: []string{"detnondet"}})
	if err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	for _, d := range diags {
		if d.Pass == "detseed" {
			t.Errorf("unselected pass still ran: %v", d)
		}
	}
}

// TestDeterministicPackageList pins the packages under detnondet's
// scope: removing one silently would unprotect it.
func TestDeterministicPackageList(t *testing.T) {
	want := []string{"sim", "mem", "htm", "stm", "tm", "harness", "obs", "eigenbench", "stamp", "energy"}
	have := make(map[string]bool)
	for _, p := range detPackages {
		have[strings.TrimPrefix(p, "internal/")] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("internal/%s missing from detnondet scope", w)
		}
	}
	l := sharedLoader(t)
	for _, p := range detPackages {
		if !isDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(p))) {
			t.Errorf("detnondet scope names nonexistent package %s", p)
		}
	}
}

// TestRepoClean is the in-process dogfood gate: the real tree must be
// finding-free (CI also runs the rtmvet binary; this keeps `go test`
// self-sufficient).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree analysis is not short")
	}
	l := sharedLoader(t)
	dirs, err := l.Expand([]string{l.ModuleRoot + "/..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, dir := range dirs {
		u, err := l.LoadUnit(dir)
		if err != nil {
			t.Fatalf("LoadUnit(%s): %v", dir, err)
		}
		diags, err := RunUnit(u, Options{})
		if err != nil {
			t.Fatalf("RunUnit(%s): %v", dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s:%d: [%s] %s", d.File, d.Line, d.Pass, d.Message)
		}
	}
}

func ExamplePasses() {
	for _, p := range Passes() {
		fmt.Println(p.Name)
	}
	// Output:
	// detnondet
	// hotalloc
	// obsguard
	// detseed
	// txnsafe
	// shardfreeze
}
