package forbid_test

import (
	"path/filepath"
	"testing"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/antest"
	"resilientdns/internal/analysis/forbid"
)

// TestForbid feeds each rule its fixtures. scope is the rule's row of
// lintutil.Scope for the run; fixture packages outside it carry no
// // want lines, so any diagnostic on them fails the run — that is how
// the out-of-scope cases prove the scope table keeps unlisted packages
// untouched.
func TestForbid(t *testing.T) {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		analyzer *analysis.Analyzer
		scope    []string
		pkgs     []string
	}{
		{"wallclock", forbid.Wallclock,
			[]string{"wallclock_bad", "wallclock_ignored", "wallclock_ok"},
			[]string{"wallclock_bad", "wallclock_ignored", "wallclock_ok", "wallclock_other"}},
		// wallclock_bad matches the subtree pattern; wallclock_other does not.
		{"wallclock subtree pattern", forbid.Wallclock,
			[]string{"wallclock_bad/..."},
			[]string{"wallclock_bad", "wallclock_other"}},
		{"weakrand", forbid.Weakrand,
			[]string{"weakrand_banned"},
			[]string{"weakrand_seed", "weakrand_banned", "weakrand_ok"}},
		{"onepath", forbid.Onepath,
			[]string{"onepath_bad", "onepath_ignored", "onepath_ok"},
			[]string{"onepath_bad", "onepath_ignored", "onepath_ok"}},
		// The transport layer and the CLIs over it may exchange freely.
		{"onepath out of scope", forbid.Onepath,
			[]string{"onepath_ok"},
			[]string{"onepath_outofscope"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			antest.Scope(t, c.analyzer, c.scope...)
			antest.Run(t, dir, c.analyzer, c.pkgs...)
		})
	}
}
