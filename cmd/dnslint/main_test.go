package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"resilientdns/internal/analysis/lintutil"
)

// publicNames are the ten diagnostic names: what `go vet -json` keys
// findings by, what //dnslint:ignore directives name, and what DESIGN
// §9 and the README list.
var publicNames = strings.Fields(
	"wallclock weakrand onepath lockexchange lockorder ctxdeadline taintwire goroleak maporder wireerr")

func isPublicName(name string) bool { return slices.Contains(publicNames, name) }

// TestPublicNames pins the analyzer list to the ten names.
func TestPublicNames(t *testing.T) {
	var got []string
	for _, a := range analyzers {
		got = append(got, a.Name)
	}
	want := append([]string(nil), publicNames...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("analyzer names = %v, want %v", got, want)
	}
}

// TestScopeTable: every row of the scope table belongs to one of the
// ten names, and every package it lists is a directory of this module
// holding Go files — a renamed package cannot silently drop out of an
// invariant's scope.
func TestScopeTable(t *testing.T) {
	const module = "resilientdns/"
	root := filepath.Join("..", "..")
	for name, pkgs := range lintutil.Scope {
		if !isPublicName(name) {
			t.Errorf("scope row %q is not an analyzer name", name)
		}
		for _, pkg := range pkgs {
			rel, ok := strings.CutPrefix(strings.TrimSuffix(pkg, "/..."), module)
			if !ok {
				t.Errorf("%s: %q is outside module %s", name, pkg, module)
				continue
			}
			files, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(rel), "*.go"))
			if len(files) == 0 {
				t.Errorf("%s: %q is not a package directory of this module", name, pkg)
			}
		}
	}
}

// TestInTreeSuppressions: every //dnslint:ignore directive in the tree
// (fixtures aside) names one of the ten, so a misspelled key cannot sit
// there suppressing nothing and reported by nobody.
func TestInTreeSuppressions(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "third_party", ".git", "benchmark":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, lintutil.IgnorePrefix)
				if !ok {
					continue
				}
				if fields := strings.Fields(rest); len(fields) == 0 || !isPublicName(fields[0]) {
					t.Errorf("%s: %q does not name an analyzer", path, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
