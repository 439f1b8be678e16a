package resolve

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestDesignLimitsMatchCode holds DESIGN.md's "What one piece of work may
// cost" to the block of limits in resolve.go: every constant that section
// quotes with a value ("`name` 16", "`name` = 30 s") must have that value
// here, and every constant in the block must be quoted there, so the
// bound table cannot drift from the code it is derived from. Flags
// (`-retry-budget`) are cmd/dnscache's and are not checked.
func TestDesignLimitsMatchCode(t *testing.T) {
	limits := map[string]any{
		"FrontendTimeout": FrontendTimeout,
		"flightTimeout":   flightTimeout,
		"renewalTimeout":  renewalTimeout,
		"prefetchTimeout": prefetchTimeout,
		"maxGlueFetches":  maxGlueFetches,
		"maxGlueDepth":    maxGlueDepth,
		"maxReferrals":    maxReferrals,
		"maxCNAME":        maxCNAME,
		"maxChainDepth":   maxChainDepth,
	}
	for _, name := range limitBlock(t) {
		if _, ok := limits[name]; !ok {
			t.Errorf("the block of limits declares %s, which this test does not know", name)
		}
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "### What one piece of work may cost\n"
	_, section, ok := strings.Cut(string(doc), heading)
	if !ok {
		t.Fatalf("DESIGN.md has no %q", strings.TrimSpace(heading))
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	quoted := map[string]bool{}
	for _, m := range regexp.MustCompile("`([A-Za-z]\\w*)`(?: =)?\\s(\\d+(?: s\\b)?)").FindAllStringSubmatch(section, -1) {
		name, value := m[1], m[2]
		v, ok := limits[name]
		if !ok {
			t.Errorf("DESIGN.md quotes `%s` %s, which is not in the block of limits", name, value)
			continue
		}
		quoted[name] = true
		want := fmt.Sprint(v)
		if d, ok := v.(time.Duration); ok {
			want = fmt.Sprintf("%g s", d.Seconds())
		}
		if value != want {
			t.Errorf("DESIGN.md quotes `%s` %s, the code says %s", name, value, want)
		}
	}
	for name := range limits {
		if !quoted[name] {
			t.Errorf("DESIGN.md's cost section quotes no value for `%s`", name)
		}
	}
}

// limitBlock returns the names resolve.go's block of limits declares: the
// const block that holds maxGlueFetches.
func limitBlock(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "resolve.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		var names []string
		for _, spec := range gd.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
		for _, n := range names {
			if n == "maxGlueFetches" {
				return names
			}
		}
	}
	t.Fatal("resolve.go declares no maxGlueFetches")
	return nil
}
