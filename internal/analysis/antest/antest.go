// Package antest is a minimal analysistest replacement for the dnslint
// suite. The toolchain vendors golang.org/x/tools/go/analysis (and the
// unitchecker driver that `go vet -vettool` speaks) but not
// go/analysis/analysistest, whose loader drags in go/packages and the
// go command. This harness reimplements the part dnslint needs on the
// standard library: load a fixture package from testdata/src/<path>
// (GOPATH layout, same as analysistest), typecheck it with the source
// importer, run the analyzer and its Requires closure, and match
// reported diagnostics against `// want "regexp"` comments.
//
// Differences from the real analysistest, on purpose:
//   - fixtures may import the standard library and sibling fixture
//     packages, but facts are not exported across packages;
//   - one `// want` expectation per line, matching any diagnostic
//     reported on that line.
package antest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/lintutil"
)

// wantRE extracts the expectation regexp from a `// want "..."` or
// `// want `...`` comment.
var wantRE = regexp.MustCompile("// want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// Run loads each fixture package under dir/src and applies the
// analyzer, failing t on any mismatch between reported diagnostics and
// the fixtures' // want expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	// The source importer resolves imports through build.Default; point
	// its GOPATH at the fixture tree, analysistest-style. GO111MODULE
	// must be off or go/build notices the enclosing repo go.mod and
	// asks the go command to resolve fixture imports in module mode,
	// where they do not exist.
	oldGOPATH := build.Default.GOPATH
	build.Default.GOPATH = dir
	defer func() { build.Default.GOPATH = oldGOPATH }()
	t.Setenv("GO111MODULE", "off")

	for _, path := range pkgPaths {
		t.Run(path, func(t *testing.T) {
			runPackage(t, dir, a, path)
		})
	}
}

// Scope points the analyzer's row of lintutil.Scope at fixture packages
// until the test ends. It is the only way to move a scope: the suite
// has no flags.
func Scope(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	prev := lintutil.Scope[a.Name]
	lintutil.Scope[a.Name] = pkgs
	t.Cleanup(func() { lintutil.Scope[a.Name] = prev })
}

func runPackage(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgDir := filepath.Join(dir, "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", pkgDir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", pkgPath, err)
	}

	var diags []analysis.Diagnostic
	if _, err := runAnalyzer(a, fset, files, pkg, info, &diags, make(map[*analysis.Analyzer]any)); err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, fset, files, diags)
}

// factStore is the in-memory fact table backing a single fixture run.
// The real drivers serialize facts across package boundaries; fixtures
// are analyzed one package at a time, so facts only need to round-trip
// within the pass (same-package objects) — which is exactly what the
// fact-based analyzers use same-package fixpoints for anyway.
type factStore struct {
	objFacts map[types.Object][]analysis.Fact
	pkgFacts map[*types.Package][]analysis.Fact
}

func newFactStore() *factStore {
	return &factStore{
		objFacts: make(map[types.Object][]analysis.Fact),
		pkgFacts: make(map[*types.Package][]analysis.Fact),
	}
}

// setFact inserts fact into facts, replacing any existing fact of the
// same dynamic type (one fact per type per key, like the real drivers).
func setFact(facts []analysis.Fact, fact analysis.Fact) []analysis.Fact {
	for i, f := range facts {
		if reflect.TypeOf(f) == reflect.TypeOf(fact) {
			facts[i] = fact
			return facts
		}
	}
	return append(facts, fact)
}

// getFact copies the stored fact with ptr's dynamic type into *ptr.
func getFact(facts []analysis.Fact, ptr analysis.Fact) bool {
	for _, f := range facts {
		if reflect.TypeOf(f) == reflect.TypeOf(ptr) {
			reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// runAnalyzer executes a's Requires closure then a itself, memoizing
// results. Only diagnostics from the root analyzer are collected (the
// diags slice is shared, but dependency passes like inspect never
// report).
func runAnalyzer(a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, diags *[]analysis.Diagnostic, results map[*analysis.Analyzer]any) (any, error) {
	if res, ok := results[a]; ok {
		return res, nil
	}
	deps := make(map[*analysis.Analyzer]any)
	for _, req := range a.Requires {
		res, err := runAnalyzer(req, fset, files, pkg, info, diags, results)
		if err != nil {
			return nil, err
		}
		deps[req] = res
	}
	fs := newFactStore()
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   deps,
		Report:     func(d analysis.Diagnostic) { *diags = append(*diags, d) },
		ReadFile:   os.ReadFile,

		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			fs.objFacts[obj] = setFact(fs.objFacts[obj], fact)
		},
		ImportObjectFact: func(obj types.Object, ptr analysis.Fact) bool {
			return getFact(fs.objFacts[obj], ptr)
		},
		ExportPackageFact: func(fact analysis.Fact) {
			fs.pkgFacts[pkg] = setFact(fs.pkgFacts[pkg], fact)
		},
		ImportPackageFact: func(p *types.Package, ptr analysis.Fact) bool {
			return getFact(fs.pkgFacts[p], ptr)
		},
		AllObjectFacts: func() []analysis.ObjectFact {
			var out []analysis.ObjectFact
			for obj, facts := range fs.objFacts {
				for _, f := range facts {
					out = append(out, analysis.ObjectFact{Object: obj, Fact: f})
				}
			}
			return out
		},
		AllPackageFacts: func() []analysis.PackageFact {
			var out []analysis.PackageFact
			for p, facts := range fs.pkgFacts {
				for _, f := range facts {
					out = append(out, analysis.PackageFact{Package: p, Fact: f})
				}
			}
			return out
		},
	}
	res, err := a.Run(pass)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	results[a] = res
	return res, nil
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				var pat string
				if m[1][0] == '"' {
					var err error
					pat, err = strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("bad // want string %s: %v", m[1], err)
					}
				} else {
					pat = m[1][1 : len(m[1])-1] // strip backquotes
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad // want regexp %q: %v", pat, err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}
