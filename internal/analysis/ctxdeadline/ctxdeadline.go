// Package ctxdeadline proves that every call path reaching an upstream
// network exchange carries a context with a real deadline.
//
// "Does Your DNS Recursion Really Time Out as Intended?" (Wang, 2016)
// measured recursive resolvers that hang, retry forever, or serialize
// behind one black-holed authoritative server because some fetch path
// lost its deadline. This repo bounds fetches in several layers — a
// per-attempt RTT-derived timeout the fetch engine applies to every
// exchange, retry budgets, frontend timeouts — but a layer only bounds
// the calls that pass through it: Transport.Exchange itself runs with
// exactly the deadline its context carries. The invariant that must
// hold is therefore a dataflow property: a context on which neither
// context.WithTimeout nor context.WithDeadline was ever applied must
// not reach Transport.Exchange, an engine fetch, or a mesh peer call.
//
// The analysis is a may-unbounded taint over context values: the shared
// value-flow walker (dataflow.Flow; no go/ssa in the vendored
// toolchain) with these predicates:
//
//   - context.Background() and context.TODO() are unbounded origins;
//   - context.WithTimeout/WithDeadline results are bounded;
//   - context.WithCancel/WithValue (and any other function returning a
//     context) pass their context argument's origins through, unless
//     the callee is known to add a deadline on every return path (the
//     AddsDeadline fact);
//   - a variable's origins are the union over all of its definitions
//     (flow-insensitive: after `ctx, cancel = context.WithTimeout(ctx, t)`
//     inside an `if`, the variable is both bounded and whatever it was
//     before — which is exactly the conditional-timeout hole this
//     analyzer exists to see through; rebind to a fresh variable to
//     declare a context bounded);
//   - any method named Exchange whose first parameter is a
//     context.Context (the transport.Transport shape) is a sink, and a
//     function that lets one of its own context parameters reach a sink
//     unbounded exports a NeedsDeadline fact, turning its callers into
//     sinks across package boundaries — this is how engine fetches and
//     mesh peer-fetch become sinks without being named here.
//
// An unbounded origin reaching a sink is reported at the sink call.
// Reporting is scoped to the production fetch chain (lintutil.Scope);
// fact computation runs everywhere so chains propagate through unscoped
// packages. Deliberately out of scope, by design rather than Makefile
// wiring: the trace-driven simulator and experiments (single-threaded
// under a virtual clock, where a wall-clock deadline would break
// determinism — the wallclock analyzer owns that territory), and
// _test.go files (the go test runner bounds every test). Closure
// parameters of context type are assumed bounded by the closure's
// caller.
package ctxdeadline

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

const name = "ctxdeadline"

// NeedsDeadline is exported for a function that lets the listed context
// parameters reach a network sink without applying a deadline: callers
// must hand it bounded contexts.
type NeedsDeadline struct {
	// Params lists the indices (into the signature's parameter tuple)
	// of context parameters that must carry a deadline.
	Params []int
}

func (*NeedsDeadline) AFact() {}

func (f *NeedsDeadline) String() string { return fmt.Sprintf("NeedsDeadline%v", f.Params) }

// AddsDeadline is exported for a function that returns a context which
// is bounded on every return path (a WithTimeout wrapper): its result
// is bounded regardless of its arguments.
type AddsDeadline struct{}

func (*AddsDeadline) AFact() {}

func (*AddsDeadline) String() string { return "AddsDeadline" }

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "prove every path into Transport.Exchange (and the engine/mesh fetch chains above it) " +
		"carries a context bounded by WithTimeout/WithDeadline; flag context.Background/TODO flows " +
		"that arrive unbounded",
	Requires:  []*analysis.Analyzer{dataflow.Builder},
	FactTypes: []analysis.Fact{(*NeedsDeadline)(nil), (*AddsDeadline)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	df := pass.ResultOf[dataflow.Builder].(*dataflow.Info)
	supp := lintutil.NewSuppressor(pass)
	// adds marks same-package functions that bound their returned
	// context on every path.
	adds := make(map[*types.Func]bool)
	flow := &dataflow.Flow{
		Info:  df,
		Param: func(v *types.Var) bool { return dataflow.IsContextType(v.Type()) },
		// An origin is an unbounded provenance; a bounded context has none.
		Call: func(call *ast.CallExpr, fn *types.Func) (bool, []ast.Expr) {
			switch {
			case fn == nil:
				return false, nil
			case fn.Pkg() != nil && fn.Pkg().Path() == "context":
				switch fn.Name() {
				case "Background", "TODO":
					return true, nil
				case "WithCancel", "WithCancelCause", "WithValue", "WithoutCancel":
					// Pass-through: the child is exactly as bounded as
					// the parent. (WithoutCancel also drops the deadline,
					// so it conservatively inherits rather than clearing.)
					return false, call.Args[:1]
				}
				return false, nil // WithTimeout, WithDeadline and their Cause forms
			case adds[fn] || pass.ImportObjectFact(fn, new(AddsDeadline)):
				return false, nil
			}
			// Unknown context-returning function: assume it passes its
			// context arguments through (the WithRetryBudget shape).
			return false, df.ArgsOfType(call, dataflow.IsContextType)
		},
		// A context reaching Exchange must be bounded; so must one
		// handed to a function that lets it reach Exchange.
		Sink: func(fn *types.Func) []int {
			if dataflow.ExchangeShaped(fn) {
				return []int{0}
			}
			return nil
		},
		Import: func(fn *types.Func) []int {
			var fact NeedsDeadline
			pass.ImportObjectFact(fn, &fact)
			return fact.Params
		},
		Export: func(fn *types.Func, params []int) {
			pass.ExportObjectFact(fn, &NeedsDeadline{Params: params})
		},
	}

	// Wrapper detection is not recursive, so one sweep suffices.
	for _, fi := range df.Funcs {
		if fi.Obj != nil && addsDeadline(flow, fi) {
			adds[fi.Obj] = true
			pass.ExportObjectFact(fi.Obj, &AddsDeadline{})
		}
	}
	df.Fixpoint(func(fi *dataflow.FuncInfo) bool { return fi.Obj != nil && flow.Check(fi, nil) })
	flow.ExportSummaries()

	if lintutil.InScope(pass) {
		for _, fi := range df.Funcs {
			if fi.Parent != nil {
				continue
			}
			flow.Check(fi, func(call *ast.CallExpr, callee *types.Func) {
				if lintutil.InTestFile(pass, call.Pos()) {
					return
				}
				supp.Report(pass, name, call.Pos(),
					"context without a deadline (from context.Background/TODO) reaches %s: "+
						"wrap it with context.WithTimeout/WithDeadline so a black-holed upstream cannot hang this path",
					callee.Name())
			})
		}
	}
	supp.ReportStale(pass, name)
	return nil, nil
}

// addsDeadline reports whether fi returns a context that is bounded on
// every return path (and returns a context at all).
func addsDeadline(flow *dataflow.Flow, fi *dataflow.FuncInfo) bool {
	results := fi.Obj.Type().(*types.Signature).Results()
	ctxResult := -1
	for i := 0; i < results.Len(); i++ {
		if dataflow.IsContextType(results.At(i).Type()) {
			ctxResult = i
		}
	}
	if ctxResult < 0 {
		return false
	}
	hasReturn, allBounded := false, true
	fi.Returns(func(ret *ast.ReturnStmt) {
		if ctxResult >= len(ret.Results) {
			// Naked or call-forwarding return; not provably bounding.
			allBounded = false
			return
		}
		hasReturn = true
		if len(flow.Origins(ret.Results[ctxResult], fi)) > 0 {
			allBounded = false
		}
	})
	return hasReturn && allBounded
}
