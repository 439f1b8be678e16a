// Package forbid holds the "this call may not appear in these packages"
// invariants. Each is one row — name, callee predicate, message — over
// one analyzer body; where a row applies is lintutil.Scope's business.
//
// wallclock: the paper's argument rests on reproducible trace-driven
// simulation. `dnssim -exp all` must reproduce results_full.txt
// byte-for-byte, which only holds if every timestamp in the simulation
// path flows from the caller's simclock.Clock. A single time.Now() or
// time.Sleep() smuggled into the simulator, workload generator, or
// topology builder makes runs diverge by scheduling accident.
//
// weakrand: predictable query IDs are the classic DNS cache-poisoning
// lever (Kaminsky 2008; the POPS/DNS-CPM lineage in PAPERS.md): an
// attacker who can guess the next QID can race the legitimate answer.
// In security-sensitive packages math/rand may not be used at all, and
// anywhere in non-test code it must not be seeded from the wall clock —
// two processes started in the same nanosecond emit identical streams.
//
// onepath: inside the resolver, every upstream fetch goes through
// resolve.Engine.Fetch, the one place that allocates query IDs,
// consults RTT-based server selection, charges the retry budget, and
// validates that responses echo the question. A direct
// Transport.Exchange call anywhere else would reuse ID 0, ignore
// quarantine, dodge the budget, and accept spoofable responses. The
// engine's own call site carries the one sanctioned //dnslint:ignore.
// This stays a row rather than a type-system boundary: a type cannot
// stop a same-package e.transport.Exchange call without a new package
// around the transport field, and a row is cheaper than a package.
package forbid

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

// rule is one forbidden-call invariant.
type rule struct {
	name, doc string
	// scoped returns the finding for a call to fn made in a package the
	// rule's scope covers, or "" when the call is allowed.
	scoped func(pass *analysis.Pass, fn *types.Func) string
	// anywhere, when set, is asked first and in every package.
	anywhere func(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) string
}

var (
	Wallclock = newAnalyzer(rule{
		name: "wallclock",
		doc: "forbid wall-clock reads (time.Now, time.Sleep, ...) in determinism-critical packages; " +
			"time must flow through simclock.Clock so simulation output stays reproducible",
		scoped: func(pass *analysis.Pass, fn *types.Func) string {
			// Methods like (time.Time).After/Sub are pure comparisons,
			// not clock reads: only package-level functions count.
			if !inPkg(fn, "time") || fn.Type().(*types.Signature).Recv() != nil || !clockReads[fn.Name()] {
				return ""
			}
			return "time." + fn.Name() + " in determinism-critical package " + pass.Pkg.Path() +
				": take time from simclock.Clock instead"
		},
	})
	Weakrand = newAnalyzer(rule{
		name: "weakrand",
		doc: "flag math/rand seeded from the wall clock, and any math/rand use in security-sensitive " +
			"packages where query IDs/ports must come from crypto/rand",
		scoped: func(pass *analysis.Pass, fn *types.Func) string {
			if !mathRand(fn) {
				return ""
			}
			return "math/rand." + fn.Name() + " in security-sensitive package " + pass.Pkg.Path() +
				": use crypto/rand for query IDs, ports, and nonces"
		},
		anywhere: func(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) string {
			if !mathRand(fn) || (fn.Name() != "Seed" && fn.Name() != "NewSource") {
				return ""
			}
			if arg := wallClockArg(pass, call); arg != "" {
				return "math/rand seeded from " + arg + " is predictable: seed from crypto/rand instead"
			}
			return ""
		},
	})
	Onepath = newAnalyzer(rule{
		name: "onepath",
		doc: "forbid Transport.Exchange calls outside the fetch engine; every upstream fetch " +
			"must flow through resolve.Engine.Fetch for QID allocation, server selection, " +
			"retry budgeting, and response validation",
		scoped: func(pass *analysis.Pass, fn *types.Func) string {
			if !dataflow.ExchangeShaped(fn) {
				return ""
			}
			return "direct Transport.Exchange call in " + pass.Pkg.Path() +
				": every upstream fetch must go through the fetch engine (resolve.Engine.Fetch)"
		},
	})
)

// clockReads are the time-package functions that observe or wait on the
// wall clock. Pure arithmetic (time.Duration, time.Unix, t.Add) is fine.
var clockReads = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func newAnalyzer(r rule) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:     r.name,
		Doc:      r.doc,
		Requires: []*analysis.Analyzer{inspect.Analyzer},
		Run:      func(pass *analysis.Pass) (any, error) { return nil, run(pass, r) },
	}
}

// run reports every non-test call the rule forbids. Out of scope a
// rule without an anywhere half has nothing to find, so every directive
// naming it falls out as stale.
func run(pass *analysis.Pass, r rule) error {
	inScope := lintutil.InScope(pass)
	supp := lintutil.NewSuppressor(pass)
	if inScope || r.anywhere != nil {
		ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
		ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
			if !ok || lintutil.InTestFile(pass, call.Pos()) {
				return
			}
			msg := ""
			if r.anywhere != nil {
				msg = r.anywhere(pass, call, fn)
			}
			if msg == "" && inScope {
				msg = r.scoped(pass, fn)
			}
			if msg != "" {
				supp.Report(pass, r.name, call.Pos(), "%s", msg)
			}
		})
	}
	supp.ReportStale(pass, r.name)
	return nil
}

func inPkg(fn *types.Func, path string) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == path
}

func mathRand(fn *types.Func) bool {
	return inPkg(fn, "math/rand") || inPkg(fn, "math/rand/v2")
}

// wallClockArg reports the wall-clock call (e.g. "time.Now") found
// anywhere inside the call's arguments, or "" if the seed looks fine.
func wallClockArg(pass *analysis.Pass, call *ast.CallExpr) string {
	found := ""
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := typeutil.StaticCallee(pass.TypesInfo, inner)
			if fn != nil && inPkg(fn, "time") &&
				(fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
				found = "time." + fn.Name()
				return false
			}
			return true
		})
	}
	return found
}
