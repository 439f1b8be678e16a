package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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

// configStruct names one settings struct: the package it is written
// against (import path and type name, as its users spell it) and the
// directory and type its fields are declared under (different only for
// an alias, core.UpstreamConfig = resolve.UpstreamConfig).
type configStruct struct {
	pkg, name     string
	declDir, decl string
}

func (c configStruct) String() string { return path.Base(c.pkg) + "." + c.name }

// outerConfigs are the settings structs a caller outside the declaring
// package fills; innerConfigs are the ones core.NewCachingServer fills
// from core.Config.
var (
	outerConfigs = []configStruct{
		{"resilientdns/internal/core", "Config", "internal/core", "Config"},
		{"resilientdns/internal/core", "UpstreamConfig", "internal/resolve", "UpstreamConfig"},
		{"resilientdns/internal/guard", "Config", "internal/guard", "Config"},
		{"resilientdns/internal/transport", "UDPServer", "internal/transport", "UDPServer"},
		{"resilientdns/internal/transport", "TCPServer", "internal/transport", "TCPServer"},
		{"resilientdns/internal/mesh", "Config", "internal/mesh", "Config"},
		{"resilientdns/internal/persist", "Options", "internal/persist", "Options"},
	}
	innerConfigs = []configStruct{
		{"resilientdns/internal/resolve", "Config", "internal/resolve", "Config"},
		{"resilientdns/internal/cache", "Config", "internal/cache", "Config"},
	}
)

// setterExempt lists the fields TestConfigFieldsHaveSetters lets stand
// without a setter, each with its reason.
var setterExempt = map[string]string{
	"core.Config.ParentRecheckInterval": "paper §6's delegation recheck; keeping or dropping it is a reproduction decision",
}

// parseTree parses every non-test Go file under root/dir, testdata and
// the benchmark's build output excluded.
func parseTree(t *testing.T, root, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || p == filepath.Join(root, "benchmark", "out")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// structFields returns the field names of type name declared in files.
func structFields(files []*ast.File, name string) []string {
	var out []string
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// typeKey names the type expression e — pkg.T or *pkg.T, pkg an import
// of the file — as "importpath.T", or "" when it is anything else.
func typeKey(imports map[string]string, e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if cl, ok := e.(*ast.CompositeLit); ok {
		e = cl.Type
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || imports[pkg.Name] == "" {
		return ""
	}
	return imports[pkg.Name] + "." + sel.Sel.Name
}

// fileImports maps each import's local name in f to its path.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = p
	}
	return out
}

// setFields collects, per "importpath.T", the fields node sets: the keys
// of every keyed pkg.T literal, and every x.F = … where x is known, within
// node, to hold a pkg.T or *pkg.T — declared by a literal, a var
// declaration, a function parameter, or a copy of such a variable.
// imports are the enclosing file's.
func setFields(imports map[string]string, node ast.Node, into map[string]map[string]bool) {
	vars := map[string]string{}
	mark := func(key, field string) {
		if into[key] == nil {
			into[key] = map[string]bool{}
		}
		into[key][field] = true
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if key := typeKey(imports, n.Type); key != "" {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(key, id.Name)
						}
					}
				}
			}
		case *ast.Field:
			if key := typeKey(imports, n.Type); key != "" {
				for _, name := range n.Names {
					vars[name.Name] = key
				}
			}
		case *ast.ValueSpec:
			if key := typeKey(imports, n.Type); key != "" {
				for _, name := range n.Names {
					vars[name.Name] = key
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
						mark(vars[x.Name], sel.Sel.Name)
					}
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || n.Tok != token.DEFINE || len(n.Rhs) != len(n.Lhs) {
					continue
				}
				if key := typeKey(imports, n.Rhs[i]); key != "" {
					vars[id.Name] = key
				} else if src, ok := n.Rhs[i].(*ast.Ident); ok && vars[src.Name] != "" {
					vars[id.Name] = vars[src.Name]
				}
			}
		}
		return true
	})
}

// TestConfigFieldsHaveSetters: a setting no caller sets is a setting with
// one value, and that value belongs in a constant. Every exported field of
// the outer settings structs is set — a keyed-literal entry or an
// assignment — by a non-test file under cmd/, internal/ or benchmark/
// outside the declaring package (only there is it spelled pkg.T), and
// every field of the inner ones is a key of core.NewCachingServer's
// literal. The exemptions are one table, each with its reason, and every
// row names a field one of these structs declares.
func TestConfigFieldsHaveSetters(t *testing.T) {
	root := filepath.Join("..", "..")
	set := map[string]map[string]bool{}
	declared := map[string]bool{}
	for _, dir := range []string{"cmd", "internal", "benchmark"} {
		for _, f := range parseTree(t, root, dir) {
			setFields(fileImports(f), f, set)
		}
	}
	check := func(c configStruct, fields []string, setters map[string]bool, where string) {
		if len(fields) == 0 {
			t.Errorf("%s: no struct %s declared in %s", c, c.decl, c.declDir)
		}
		for _, field := range fields {
			name := c.String() + "." + field
			declared[name] = true
			_, exempt := setterExempt[name]
			switch {
			case setters[field] && exempt:
				t.Errorf("%s is set %s but listed as exempt; drop the exemption", name, where)
			case !setters[field] && !exempt && ast.IsExported(field):
				t.Errorf("%s has no setter %s: make it a constant, or set it", name, where)
			}
		}
	}
	for _, c := range outerConfigs {
		check(c, structFields(parseTree(t, root, c.declDir), c.decl), set[c.pkg+"."+c.name], "outside its package")
	}

	// The inner structs: keys of the literals in core.NewCachingServer.
	inner := map[string]map[string]bool{}
	for _, f := range parseTree(t, root, "internal/core") {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "NewCachingServer" && fd.Recv == nil {
				setFields(fileImports(f), fd, inner)
			}
		}
	}
	for _, c := range innerConfigs {
		check(c, structFields(parseTree(t, root, c.declDir), c.decl), inner[c.pkg+"."+c.name], "in core.NewCachingServer")
	}
	for name := range setterExempt {
		if !declared[name] {
			t.Errorf("setterExempt lists %s, which no checked struct declares; drop the row", name)
		}
	}
}
