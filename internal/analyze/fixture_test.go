package analyze

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness is an analysistest workalike on the stdlib: each
// directory under testdata/src is parsed and type-checked under a pretend
// import path (so the package-scoped analyzers see the scope the fixture
// exercises), all six analyzers run, and the diagnostics are matched
// line-by-line against `// want "substring"` comments. Every diagnostic must
// be wanted and every want must be diagnosed.

var fixtureExports = struct {
	once sync.Once
	m    map[string]string
	err  error
}{}

// stdExports resolves export data for the standard-library packages the
// fixtures import, once per test binary.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	fixtureExports.once.Do(func() {
		fixtureExports.m, fixtureExports.err = ExportMap(moduleRoot(t),
			"fmt", "math/rand", "sort", "strconv", "strings", "testing", "time",
			"repro/internal/intern")
	})
	if fixtureExports.err != nil {
		t.Fatalf("resolving std export data: %v", fixtureExports.err)
	}
	return fixtureExports.m
}

var wantRE = regexp.MustCompile(`"([^"]*)"`)

// collectWants extracts `// want "..."` expectations: file → line → the
// quoted substrings expected in diagnostics anchored to that line.
func collectWants(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	wants := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				byLine := wants[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					wants[pos.Filename] = byLine
				}
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					byLine[pos.Line] = append(byLine[pos.Line], m[1])
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<rel> as a package with the given import
// path and checks the analyzer output against the fixture's want comments.
func runFixture(t *testing.T, rel, importPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, info, err := TypeCheck(fset, importPath, files, stdExports(t))
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", rel, err)
	}

	diags := RunAnalyzers(Analyzers(), fset, files, pkg, info)
	wants := collectWants(fset, files)
	matched := make(map[string]map[int][]bool)
	for file, byLine := range wants {
		matched[file] = make(map[int][]bool)
		//nfvet:allow maprange (every entry is visited; match results are reported per want below)
		for line, subs := range byLine {
			matched[file][line] = make([]bool, len(subs))
		}
	}

	for _, d := range diags {
		rendered := d.Message + " (" + d.Analyzer + ")"
		found := false
		for i, sub := range wants[d.Pos.Filename][d.Pos.Line] {
			if !matched[d.Pos.Filename][d.Pos.Line][i] && strings.Contains(rendered, sub) {
				matched[d.Pos.Filename][d.Pos.Line][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, file := range sortedKeys(wants) {
		byLine := wants[file]
		var lines []int
		//nfvet:allow maprange (lines are collected then sorted before use)
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for i, sub := range byLine[line] {
				if !matched[file][line][i] {
					t.Errorf("%s:%d: expected a diagnostic containing %q, got none", file, line, sub)
				}
			}
		}
	}
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "wallclock/inscope", "fixture/internal/fuzz")
}

func TestWallclockOutOfScopeFixture(t *testing.T) {
	runFixture(t, "wallclock/outofscope", "fixture/internal/stats")
}

func TestGlobalRandFixture(t *testing.T) {
	runFixture(t, "globalrand", "fixture/cmd/gen")
}

func TestMapRangeCriticalFixture(t *testing.T) {
	runFixture(t, "maprange/critical", "fixture/internal/trace")
}

func TestMapRangeOutOfScopeFixture(t *testing.T) {
	runFixture(t, "maprange/outofscope", "fixture/examples/demo")
}

func TestStateKeyFixture(t *testing.T) {
	runFixture(t, "statekey", "fixture/internal/keys")
}

func TestNextPktFixture(t *testing.T) {
	runFixture(t, "nextpkt", "fixture/internal/transport")
}

func TestInternLocalFixture(t *testing.T) {
	runFixture(t, "internlocal", "fixture/internal/fuzz")
}
