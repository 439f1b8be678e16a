// Command dnslint is the repo's custom vet tool: ten analyzers that
// enforce the resilience invariants the ordinary toolchain cannot see.
// It speaks the unitchecker protocol, so it runs under the go command:
//
//	go build -o bin/dnslint ./cmd/dnslint
//	go vet -vettool=$(pwd)/bin/dnslint ./...
//
// or via `make lint`; add -json to the vet command for a
// machine-readable report. There are no flags: which invariant applies
// in which package is lintutil.Scope. Findings are suppressed
// case-by-case with `//dnslint:ignore <analyzer> <reason>` (reason
// mandatory) — and a directive that no longer suppresses anything is
// itself a finding. See DESIGN.md §9 for the invariant behind each
// analyzer.
package main

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"resilientdns/internal/analysis/ctxdeadline"
	"resilientdns/internal/analysis/forbid"
	"resilientdns/internal/analysis/goroleak"
	"resilientdns/internal/analysis/locks"
	"resilientdns/internal/analysis/maporder"
	"resilientdns/internal/analysis/taintwire"
	"resilientdns/internal/analysis/wireerr"
)

// analyzers is the full suite, in rough order of layer: time, locks,
// randomness, codec, iteration order, exchange discipline, deadlines,
// goroutine lifetimes, lock ordering, taint.
var analyzers = []*analysis.Analyzer{
	forbid.Wallclock,
	locks.Lockexchange,
	forbid.Weakrand,
	wireerr.Analyzer,
	maporder.Analyzer,
	forbid.Onepath,
	ctxdeadline.Analyzer,
	goroleak.Analyzer,
	locks.Lockorder,
	taintwire.Analyzer,
}

func main() { unitchecker.Main(analyzers...) }
