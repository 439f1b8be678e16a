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
// not reach Transport.Exchange, an engine fetch, a zone transfer, or a
// mesh peer call.
//
// The analysis is a may-unbounded taint over context values, built on
// the shared dataflow index (no go/ssa in the vendored toolchain; see
// internal/analysis/dataflow):
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
//     sinks across package boundaries — this is how engine fetches,
//     xfer transfers, and mesh peer-fetch become sinks without being
//     named here.
//
// An unbounded origin reaching a sink is reported at the sink call.
// Reporting is scoped to the production fetch chain (-pkgs); fact
// computation runs everywhere so chains propagate through unscoped
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
	"sort"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

const name = "ctxdeadline"

// defaultPkgs is the production fetch chain: every package from which
// an upstream exchange, zone transfer, or mesh peer call is reachable
// in a live process. cmd/ daemons and probes are included — losing a
// deadline in main() is how the Wang 2016 resolvers hung.
const defaultPkgs = "resilientdns/internal/core," +
	"resilientdns/internal/resolve," +
	"resilientdns/internal/transport," +
	"resilientdns/internal/xfer," +
	"resilientdns/internal/mesh," +
	"resilientdns/internal/stub," +
	"resilientdns/cmd/dnscache," +
	"resilientdns/cmd/dnsserver," +
	"resilientdns/cmd/dnsquery," +
	"resilientdns/cmd/dnsperf"

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
	Doc: "prove every path into Transport.Exchange (and the engine/xfer/mesh fetch chains above it) " +
		"carries a context bounded by WithTimeout/WithDeadline; flag context.Background/TODO flows " +
		"that arrive unbounded",
	Requires:  []*analysis.Analyzer{dataflow.Builder},
	FactTypes: []analysis.Fact{(*NeedsDeadline)(nil), (*AddsDeadline)(nil)},
	Run:       run,
}

func init() {
	Analyzer.Flags.String("pkgs", defaultPkgs,
		"comma-separated package paths (suffix /... for subtrees) where unbounded contexts reaching a fetch are reported")
}

// origin is one possible provenance of a context value.
type origin struct {
	// kind is one of the origin kinds below.
	kind int
	// param is the context parameter index for originParam.
	param int
}

const (
	originBounded = iota
	originUnbounded
	originParam
)

type checker struct {
	pass *analysis.Pass
	df   *dataflow.Info
	supp *lintutil.Suppressor

	// needs maps same-package functions to the set of context parameter
	// indices that must be bounded; grown to a fixpoint.
	needs map[*types.Func]map[int]bool
	// adds marks same-package functions that bound their returned
	// context on every path.
	adds map[*types.Func]bool
	// report enables diagnostics (fact computation runs regardless).
	report bool
}

func run(pass *analysis.Pass) (any, error) {
	pkgs := pass.Analyzer.Flags.Lookup("pkgs").Value.String()
	c := &checker{
		pass:   pass,
		df:     pass.ResultOf[dataflow.Builder].(*dataflow.Info),
		supp:   lintutil.NewSuppressor(pass),
		needs:  make(map[*types.Func]map[int]bool),
		adds:   make(map[*types.Func]bool),
		report: lintutil.PkgMatches(pass.Pkg.Path(), pkgs),
	}

	// AddsDeadline pass: wrapper detection is not recursive, so one
	// sweep suffices.
	for _, fi := range c.df.Funcs {
		if fi.Obj != nil && c.addsDeadline(fi) {
			c.adds[fi.Obj] = true
		}
	}

	// NeedsDeadline fixpoint over same-package call edges (imported
	// facts are stable inputs).
	for changed := true; changed; {
		changed = false
		for _, fi := range c.df.Funcs {
			if fi.Obj == nil || fi.Parent != nil {
				continue
			}
			before := len(c.needs[fi.Obj])
			c.analyze(fi, false)
			if len(c.needs[fi.Obj]) != before {
				changed = true
			}
		}
	}

	// Export facts, then the reporting pass.
	for fn, params := range c.needs {
		if len(params) == 0 {
			continue
		}
		idx := make([]int, 0, len(params))
		for i := range params {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		c.pass.ExportObjectFact(fn, &NeedsDeadline{Params: idx})
	}
	for fn := range c.adds {
		c.pass.ExportObjectFact(fn, &AddsDeadline{})
	}
	if c.report {
		for _, fi := range c.df.Funcs {
			if fi.Parent != nil {
				continue
			}
			c.analyze(fi, true)
		}
	}
	c.supp.ReportStale(pass, name)
	return nil, nil
}

// addsDeadline reports whether fi returns a context that is bounded on
// every return path (and returns a context at all).
func (c *checker) addsDeadline(fi *dataflow.FuncInfo) bool {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	ctxResult := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if dataflow.IsContextType(sig.Results().At(i).Type()) {
			ctxResult = i
		}
	}
	if ctxResult < 0 {
		return false
	}
	hasReturn, allBounded := false, true
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ctxResult >= len(ret.Results) {
			// Naked or call-forwarding return; not provably bounding.
			allBounded = false
			return true
		}
		hasReturn = true
		for _, o := range c.origins(ret.Results[ctxResult], -1, nil, make(map[*types.Var]bool)) {
			if o.kind != originBounded {
				allBounded = false
			}
		}
		return true
	})
	return hasReturn && allBounded
}

// analyze walks fi's body (nested closures included — their sinks are
// charged to the enclosing declaration), either growing the
// NeedsDeadline set (report=false) or emitting diagnostics for
// unbounded origins (report=true).
func (c *checker) analyze(fi *dataflow.FuncInfo, report bool) {
	params := c.ctxParams(fi)
	ast.Inspect(fi.Node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := c.df.Callee(call)
		if callee == nil {
			return true
		}
		for _, argIdx := range c.sinkParams(callee) {
			if argIdx >= len(call.Args) {
				continue
			}
			arg := call.Args[argIdx]
			unbounded := false
			for _, o := range c.origins(arg, -1, params, make(map[*types.Var]bool)) {
				switch o.kind {
				case originUnbounded:
					unbounded = true
				case originParam:
					if !report && fi.Obj != nil {
						set := c.needs[fi.Obj]
						if set == nil {
							set = make(map[int]bool)
							c.needs[fi.Obj] = set
						}
						set[o.param] = true
					}
				}
			}
			if unbounded && report && !lintutil.InTestFile(c.pass, call.Pos()) {
				c.supp.Report(c.pass, name, call.Pos(),
					"context without a deadline (from context.Background/TODO) reaches %s: "+
						"wrap it with context.WithTimeout/WithDeadline so a black-holed upstream cannot hang this path",
					callee.Name())
			}
		}
		return true
	})
}

// ctxParams maps fi's own context parameters to their signature indices.
func (c *checker) ctxParams(fi *dataflow.FuncInfo) map[*types.Var]int {
	if fi.Obj == nil {
		return nil
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[*types.Var]int)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if dataflow.IsContextType(p.Type()) {
			out[p] = i
		}
	}
	return out
}

// sinkParams returns the context argument indices that must be bounded
// when calling fn, or nil if fn is not a sink. Exchange-shaped methods
// are sinks by shape; other functions are sinks per their NeedsDeadline
// fact (imported cross-package, or the same-package fixpoint state).
func (c *checker) sinkParams(fn *types.Func) []int {
	if dataflow.ExchangeShaped(fn) {
		return []int{0}
	}
	if set, ok := c.needs[fn]; ok && len(set) > 0 {
		idx := make([]int, 0, len(set))
		for i := range set {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		return idx
	}
	var fact NeedsDeadline
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Params
	}
	return nil
}

// origins computes the provenance set of a context-valued expression.
// index selects a result from a multi-result call (-1 = single value);
// params maps the enclosing function's context parameters to indices;
// seen breaks definition cycles.
func (c *checker) origins(e ast.Expr, index int, params map[*types.Var]int, seen map[*types.Var]bool) []origin {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		v := c.df.VarOf(e)
		if v == nil {
			return []origin{{kind: originBounded}}
		}
		if i, ok := params[v]; ok {
			return []origin{{kind: originParam, param: i}}
		}
		if seen[v] {
			return nil
		}
		seen[v] = true
		defs := c.df.Defs(v)
		if len(defs) == 0 {
			// No visible definition: another function's parameter (a
			// closure's own context parameter, or a captured variable
			// from a scope this walk did not pair with a param map).
			// Assume the provider bounded it.
			return []origin{{kind: originBounded}}
		}
		var out []origin
		for _, d := range defs {
			out = append(out, c.origins(d.RHS, d.Index, params, seen)...)
		}
		return out
	case *ast.CallExpr:
		return c.callOrigins(e, params, seen)
	case *ast.SelectorExpr:
		// A context stored in a struct field: provenance is invisible
		// here; assume the writer bounded it (the write site is where
		// the flow is checked).
		return []origin{{kind: originBounded}}
	default:
		return []origin{{kind: originBounded}}
	}
}

// callOrigins resolves the provenance of a call's context result.
func (c *checker) callOrigins(call *ast.CallExpr, params map[*types.Var]int, seen map[*types.Var]bool) []origin {
	fn := c.df.Callee(call)
	if fn == nil {
		return []origin{{kind: originBounded}}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		switch fn.Name() {
		case "Background", "TODO":
			return []origin{{kind: originUnbounded}}
		case "WithTimeout", "WithDeadline", "WithTimeoutCause", "WithDeadlineCause":
			return []origin{{kind: originBounded}}
		case "WithCancel", "WithCancelCause", "WithValue", "WithoutCancel":
			// Pass-through: the child is exactly as bounded as the
			// parent. (WithoutCancel also drops the deadline, so it
			// conservatively inherits rather than clearing.)
			if len(call.Args) > 0 {
				return c.origins(call.Args[0], -1, params, seen)
			}
		}
		return []origin{{kind: originBounded}}
	}
	if c.adds[fn] {
		return []origin{{kind: originBounded}}
	}
	var fact AddsDeadline
	if c.pass.ImportObjectFact(fn, &fact) {
		return []origin{{kind: originBounded}}
	}
	// Unknown context-returning function: assume it passes its context
	// arguments through (the WithRetryBudget shape). With no context
	// arguments its result's provenance is invisible; assume bounded.
	var out []origin
	for _, arg := range call.Args {
		if tv, ok := c.pass.TypesInfo.Types[arg]; ok && dataflow.IsContextType(tv.Type) {
			out = append(out, c.origins(arg, -1, params, seen)...)
		}
	}
	if len(out) == 0 {
		return []origin{{kind: originBounded}}
	}
	return out
}
