package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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

// TestInventoryMatchesTree holds DESIGN.md §3 to the tree: every directory
// directly under cmd/ and internal/ (internal/analysis, whose packages
// are one tool, is one row) is the first cell of exactly one table row,
// every row names a directory holding Go files, and no cell of a row is
// empty — a new package has to say what it is and which role, paper
// section or north-star aim needs it before tier-1 passes.
func TestInventoryMatchesTree(t *testing.T) {
	const analysisRow = "internal/analysis"
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		dir := strings.Trim(strings.TrimSpace(cells[0]), "`")
		rows[dir]++
		if len(cells) != 3 {
			t.Errorf("row %s has %d cells, want directory, contents, needed by", dir, len(cells))
		}
		for _, cell := range cells {
			if strings.TrimSpace(cell) == "" {
				t.Errorf("row %s has an empty cell", dir)
			}
		}
		pattern := "*.go"
		if dir == analysisRow {
			pattern = filepath.Join("*", "*.go")
		}
		if files, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(dir), pattern)); len(files) == 0 {
			t.Errorf("row %s names no directory holding Go files", dir)
		}
	}
	for _, parent := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir := parent + "/" + e.Name(); e.IsDir() && rows[dir] != 1 {
				t.Errorf("%s appears in %d rows of DESIGN.md section 3, want exactly 1", dir, rows[dir])
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
