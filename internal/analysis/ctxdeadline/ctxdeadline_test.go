package ctxdeadline_test

import (
	"path/filepath"
	"testing"

	"resilientdns/internal/analysis/antest"
	"resilientdns/internal/analysis/ctxdeadline"
)

// TestCtxdeadline runs the in-scope fixtures plus the stale-directive
// package, which is deliberately NOT in scope: stale suppressions are
// reported regardless of scope.
func TestCtxdeadline(t *testing.T) {
	antest.Scope(t, ctxdeadline.Analyzer, "ctxdeadline_bad", "ctxdeadline_chain", "ctxdeadline_ok")

	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, ctxdeadline.Analyzer,
		"ctxdeadline_bad", "ctxdeadline_chain", "ctxdeadline_ok", "ctxdeadline_stale")
}

// TestOutOfScopePackage: a package outside the analyzer's scope (the simulator,
// the experiments) may run unbounded; any diagnostic fails the run.
func TestOutOfScopePackage(t *testing.T) {
	antest.Scope(t, ctxdeadline.Analyzer, "ctxdeadline_ok")

	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, ctxdeadline.Analyzer, "ctxdeadline_outofscope")
}
