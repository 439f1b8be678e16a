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
//   - a composite literal of a context type of our own (a struct that
//     embeds or wraps a context) is bounded in one of two cases only:
//     its type's own Deadline method returns ok == true on every path
//     (the HasDeadline fact), or the type has no Deadline of its own and
//     every context field of the struct — embedded or named — is set in
//     the literal and bounded itself. A literal whose own Deadline may
//     return ok == false, that leaves a context field nil, or whose type
//     has no context field to forward, is an unbounded origin, and so is
//     new(T) of such a type unless its own Deadline always reports one.
//     Not seen: a zero-value `var w T` later used as &w, context fields
//     assigned after the literal is built, and a constructor of such a
//     type that takes no context argument (its result has no origin);
//     keep context types of our own to literals and new;
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
	"go/constant"
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

// HasDeadline is exported for a Deadline method whose ok result is the
// constant true on every return path: a literal of its type is bounded
// whatever it wraps.
type HasDeadline struct{}

func (*HasDeadline) AFact() {}

func (*HasDeadline) String() string { return "HasDeadline" }

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "prove every path into Transport.Exchange (and the engine/mesh fetch chains above it) " +
		"carries a context bounded by WithTimeout/WithDeadline; flag context.Background/TODO flows " +
		"that arrive unbounded",
	Requires:  []*analysis.Analyzer{dataflow.Builder},
	FactTypes: []analysis.Fact{(*NeedsDeadline)(nil), (*AddsDeadline)(nil), (*HasDeadline)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	df := pass.ResultOf[dataflow.Builder].(*dataflow.Info)
	supp := lintutil.NewSuppressor(pass)
	// adds marks same-package functions that bound their returned
	// context on every path.
	adds := make(map[*types.Func]bool)
	// has marks same-package Deadline methods that report a deadline on
	// every path.
	has := make(map[*types.Func]bool)
	for _, fi := range df.Funcs {
		if hasDeadline(pass, fi) {
			has[fi.Obj] = true
			pass.ExportObjectFact(fi.Obj, &HasDeadline{})
		}
	}
	flow := &dataflow.Flow{
		Info:  df,
		Param: func(v *types.Var) bool { return dataflow.IsContextType(v.Type()) },
		// An origin is an unbounded provenance; a bounded context has none.
		Call: func(call *ast.CallExpr, fn *types.Func) (bool, []ast.Expr) {
			switch {
			case isNew(pass, call):
				return literal(pass, has, pass.TypesInfo.TypeOf(call.Args[0]), nil)
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
		// A literal of our own context type is bounded by its own
		// Deadline, or else by the contexts it forwards.
		Lit: func(lit *ast.CompositeLit) (bool, []ast.Expr) {
			return literal(pass, has, pass.TypesInfo.TypeOf(lit), lit)
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

// hasDeadline reports whether fi is a Deadline method whose second result
// is the constant true on every return path.
func hasDeadline(pass *analysis.Pass, fi *dataflow.FuncInfo) bool {
	if fi.Obj == nil || fi.Obj.Name() != "Deadline" || fi.Obj.Type().(*types.Signature).Recv() == nil {
		return false
	}
	hasReturn, always := false, true
	fi.Returns(func(ret *ast.ReturnStmt) {
		hasReturn = true
		if len(ret.Results) != 2 {
			always = false
			return
		}
		v := pass.TypesInfo.Types[ret.Results[1]].Value
		if v == nil || v.Kind() != constant.Bool || !constant.BoolVal(v) {
			always = false
		}
	})
	return hasReturn && always
}

// literal classifies a value of type t built by lit, or by new(t) when
// lit is nil: no origin unless t is a context type of our own, bounded by
// its own Deadline if it has one (has, or the imported HasDeadline fact),
// and otherwise by the contexts the literal sets. A zero value forwards a
// nil context, an unbounded origin.
func literal(pass *analysis.Pass, has map[*types.Func]bool, t types.Type, lit *ast.CompositeLit) (bool, []ast.Expr) {
	obj, index, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Deadline")
	fn, _ := obj.(*types.Func)
	switch {
	case fn == nil:
		return false, nil // not a context
	case len(index) == 1: // the type's own method, not a promoted one
		return !has[fn] && !pass.ImportObjectFact(fn, new(HasDeadline)), nil
	case lit == nil:
		return true, nil
	}
	return forwardedContexts(pass, lit)
}

// isNew reports whether call is the builtin new.
func isNew(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "new"
}

// forwardedContexts is the origin of a literal of a context type that
// forwards: the values it gives the struct's context fields, or a source
// when the type has no such field or the literal leaves one nil.
func forwardedContexts(pass *analysis.Pass, lit *ast.CompositeLit) (bool, []ast.Expr) {
	st, ok := pass.TypesInfo.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return true, nil
	}
	vals := make(map[int]ast.Expr)
	for i, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			vals[i] = elt
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			if key, ok := kv.Key.(*ast.Ident); ok && st.Field(j).Name() == key.Name {
				vals[j] = kv.Value
			}
		}
	}
	var through []ast.Expr
	for j := 0; j < st.NumFields(); j++ {
		if !dataflow.IsContextType(st.Field(j).Type()) {
			continue
		}
		v, ok := vals[j]
		if !ok {
			return true, nil
		}
		through = append(through, v)
	}
	return len(through) == 0, through
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
