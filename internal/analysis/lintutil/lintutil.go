// Package lintutil holds the shared plumbing for the dnslint analyzers:
// the //dnslint:ignore escape hatch and the scope table that says which
// invariant is enforced in which packages.
//
// Every analyzer in internal/analysis/... supports the same suppression
// directive:
//
//	//dnslint:ignore <analyzer> <reason>
//
// placed either at the end of the offending line or on the line
// immediately above it. The reason is mandatory: a bare
// "//dnslint:ignore wallclock" does not suppress anything, so every
// exception carries its justification in the source where reviewers can
// audit it (see DESIGN.md §9).
package lintutil

import (
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// IgnorePrefix is the suppression directive marker.
const IgnorePrefix = "//dnslint:ignore"

// Suppressor answers whether a position is covered by a
// //dnslint:ignore directive for a given analyzer, and remembers which
// directives actually suppressed something so the stale ones can be
// reported at the end of the pass. Build one per pass with
// NewSuppressor.
type Suppressor struct {
	// lines maps file name + line to the directives covering that line.
	lines map[lineKey][]*directive
	// all lists every directive in the pass, in scan order.
	all []*directive
}

// directive is one parsed //dnslint:ignore comment. A directive covers
// its own line and the next, and is "used" once it suppresses at least
// one finding.
type directive struct {
	name string
	pos  token.Pos
	used bool
}

type lineKey struct {
	file string
	line int
}

// NewSuppressor scans every comment in the pass's files and indexes the
// //dnslint:ignore directives it finds. A directive suppresses findings
// on its own line and on the line directly below it (so it can trail
// the offending statement or sit on its own line above).
func NewSuppressor(pass *analysis.Pass) *Suppressor {
	s := &Suppressor{lines: make(map[lineKey][]*directive)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				d := &directive{name: name, pos: c.Pos()}
				s.all = append(s.all, d)
				pos := pass.Fset.Position(c.Pos())
				s.lines[lineKey{pos.Filename, pos.Line}] = append(s.lines[lineKey{pos.Filename, pos.Line}], d)
				s.lines[lineKey{pos.Filename, pos.Line + 1}] = append(s.lines[lineKey{pos.Filename, pos.Line + 1}], d)
			}
		}
	}
	return s
}

// parseIgnore extracts the analyzer name from a well-formed directive.
// A directive without a reason is malformed and suppresses nothing.
func parseIgnore(text string) (analyzer string, ok bool) {
	if !strings.HasPrefix(text, IgnorePrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, IgnorePrefix)
	fields := strings.Fields(rest)
	// fields[0] is the analyzer name; at least one more word of reason
	// is required for the directive to count.
	if len(fields) < 2 {
		return "", false
	}
	return fields[0], true
}

// Ignored reports whether a finding by the named analyzer at pos is
// suppressed by a directive, marking the suppressing directive used.
func (s *Suppressor) Ignored(pass *analysis.Pass, pos token.Pos, analyzer string) bool {
	p := pass.Fset.Position(pos)
	hit := false
	for _, d := range s.lines[lineKey{p.Filename, p.Line}] {
		if d.name == analyzer {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Report emits a diagnostic unless it is suppressed. It is the single
// reporting entry point for all dnslint analyzers, so the escape hatch
// behaves identically everywhere.
func (s *Suppressor) Report(pass *analysis.Pass, analyzer string, pos token.Pos, format string, args ...any) {
	if s.Ignored(pass, pos, analyzer) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// ReportStale reports every directive naming analyzer that suppressed
// nothing during the pass. Every analyzer calls it once at the end of
// its run — also when its scope made it skip the package, where no
// directive naming it can ever suppress anything: a suppression that no longer suppresses is dead weight at
// best and, at worst, a fixed bug's justification still licensing a
// future regression. Deliberately not suppressible — the cure for a
// stale directive is deleting it.
func (s *Suppressor) ReportStale(pass *analysis.Pass, analyzer string) {
	for _, d := range s.all {
		if d.name == analyzer && !d.used {
			pass.Reportf(d.pos, "stale //dnslint:ignore %s directive: it suppresses no %s finding; delete it",
				analyzer, analyzer)
		}
	}
}

// InTestFile reports whether pos is inside a _test.go file. The dnslint
// rules police production code; tests may sleep, discard errors, and
// use deterministic randomness freely.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// Scope is the suite's one scope declaration: for every invariant that is
// enforced in part of the tree only, the packages it is enforced in. An
// invariant with no row (lockexchange, lockorder, taintwire, wireerr)
// holds everywhere. A pattern is an exact package path, or a subtree
// when it ends in "/...". `go vet` hands the driver every package,
// cmd/ and _test.go included; which invariant applies where is decided
// here and nowhere else (analyzer tests repoint a row at their fixture
// packages with antest.Scope).
var Scope = map[string][]string{
	// The determinism-critical set: everything that runs under the
	// virtual clock during trace-driven simulation. simclock itself is
	// listed so the one legitimate wall-clock read (Real.Now) carries a
	// visible //dnslint:ignore annotation.
	"wallclock": {
		"resilientdns/internal/sim",
		"resilientdns/internal/simnet",
		"resilientdns/internal/simclock",
		"resilientdns/internal/experiments",
		"resilientdns/internal/workload",
		"resilientdns/internal/topology",
		"resilientdns/internal/attack",
		"resilientdns/internal/guard",
		"resilientdns/internal/mesh",
	},
	// Security-sensitive packages, where math/rand is banned outright:
	// query IDs, source ports and nonces come from crypto/rand. The
	// deterministic simulation packages *want* seeded math/rand.
	"weakrand": {
		"resilientdns/internal/core",
		"resilientdns/internal/resolve",
		"resilientdns/internal/transport",
		"resilientdns/internal/authserver",
		"resilientdns/internal/dnssec",
		"resilientdns/cmd/dnsquery",
	},
	// The resolver side: the policy shell, the pipeline, the simulator
	// that drives them, the guard (answers from cache, never fetches)
	// and the mesh (peer calls go through mesh.Transport.Call). The
	// package below the resolver (transport) exchanges on its own behalf.
	"onepath": {
		"resilientdns/internal/core",
		"resilientdns/internal/resolve",
		"resilientdns/internal/sim",
		"resilientdns/internal/guard",
		"resilientdns/internal/mesh",
	},
	// The production fetch chain: every package from which an upstream
	// exchange or mesh peer call is reachable in a live process, daemons
	// and probes included — losing a deadline in main() is how the Wang
	// 2016 resolvers hung. The simulator is out: a wall-clock deadline
	// would break its determinism.
	"ctxdeadline": {
		"resilientdns/internal/core",
		"resilientdns/internal/resolve",
		"resilientdns/internal/transport",
		"resilientdns/internal/mesh",
		"resilientdns/cmd/dnscache",
		"resilientdns/cmd/dnsserver",
		"resilientdns/cmd/dnsquery",
	},
	// The long-lived components: every package that starts goroutines
	// expected to outlive one request. Short-lived CLIs exit when their
	// work is done and the simulator steps a virtual clock, not
	// goroutines.
	"goroleak": {
		"resilientdns/internal/core",
		"resilientdns/internal/resolve",
		"resilientdns/internal/guard",
		"resilientdns/internal/mesh",
		"resilientdns/internal/persist",
		"resilientdns/internal/debughttp",
		"resilientdns/cmd/dnscache",
		"resilientdns/cmd/dnsserver",
	},
	// Every package whose output is diffed, frozen or replayed: the
	// simulator and its inputs, the experiment tables behind
	// results_full.txt, the stats/metrics lines and the persistence layer.
	"maporder": {
		"resilientdns/internal/sim",
		"resilientdns/internal/simnet",
		"resilientdns/internal/experiments",
		"resilientdns/internal/workload",
		"resilientdns/internal/topology",
		"resilientdns/internal/metrics",
		"resilientdns/internal/persist",
		"resilientdns/internal/attack",
	},
}

// InScope reports whether the running analyzer's invariant is enforced
// in the package under analysis.
func InScope(pass *analysis.Pass) bool {
	patterns, scoped := Scope[pass.Analyzer.Name]
	return !scoped || pkgMatches(pass.Pkg.Path(), patterns)
}

// pkgMatches reports whether the package path is covered by the pattern
// list. A pattern matches its exact path, and a pattern ending in
// "/..." matches the prefix subtree.
func pkgMatches(path string, patterns []string) bool {
	for _, pat := range patterns {
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
			continue
		}
		if path == pat {
			return true
		}
	}
	return false
}
