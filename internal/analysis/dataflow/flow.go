package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Source is the origin of a value a source call produced; an origin ≥ 0
// is the index of the enclosing declaration's parameter it came in by.
const Source = -1

// Flow is one may-analysis over values: could a value a source call
// produced, or one of the enclosing function's own parameters, reach
// this argument of a sink call? The expression → VarOf → Defs → call
// recursion, the per-function parameter→sink summary, its same-package
// fixed point and its export as an object fact are written here once;
// an analyzer supplies the predicates (what is a source, what passes a
// value through, what is a sink) and its own fact type.
type Flow struct {
	Info *Info
	// Param reports whether a parameter of the enclosing declaration is
	// worth tracking as an origin.
	Param func(*types.Var) bool
	// Call classifies a call's result: produced by a source, and/or
	// carrying the origins of the listed expressions (normally some of
	// its arguments) through. fn is nil for builtins, conversions and
	// calls of function values.
	Call func(call *ast.CallExpr, fn *types.Func) (source bool, through []ast.Expr)
	// Projections says whether an origin survives selection, indexing,
	// slicing, dereference and composite literals (bytes do: a field of
	// a tainted message is tainted) or is lost there (a context stored
	// in a struct is checked where it is stored).
	Projections bool
	// Lit, when set, classifies a composite literal (or its address) the
	// way Call classifies a call, in place of Projections: produced by a
	// source, and/or carrying the origins of the listed expressions.
	Lit func(lit *ast.CompositeLit) (source bool, through []ast.Expr)
	// Zero, when set, says whether the zero value of a type is produced
	// by a source: what a variable declared without an initializer
	// (`var v T`) holds until something is assigned.
	Zero func(types.Type) bool
	// Store, when set, says whether an assignment into field of v
	// (`v.field = x`) is one of v's definitions: v then carries x's
	// origins, in the same flow-insensitive union.
	Store func(v, field *types.Var) bool
	// Sink returns the argument positions of fn that are sinks by
	// shape, nil when fn is not one.
	Sink func(fn *types.Func) []int
	// Import reads and Export writes the analyzer's fact carrying a
	// function's summary: the parameters it lets reach a sink.
	Import func(fn *types.Func) []int
	Export func(fn *types.Func, params []int)

	// reach is the same-package summary state Check grows.
	reach map[*types.Func]map[int]bool
}

// Origins returns the origin set of e inside fi: Source and/or indices
// of fi's tracked parameters. Empty means neither can reach e.
func (f *Flow) Origins(e ast.Expr, fi *FuncInfo) []int {
	return f.origins(e, f.params(fi), make(map[*types.Var]bool))
}

// params maps fi's tracked parameters to their signature indices.
func (f *Flow) params(fi *FuncInfo) map[*types.Var]int {
	if fi.Obj == nil {
		return nil
	}
	sig := fi.Obj.Type().(*types.Signature)
	out := make(map[*types.Var]int)
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); f.Param(p) {
			out[p] = i
		}
	}
	return out
}

// origins is the walker. A variable's origins are the union over all of
// its definitions; seen breaks definition cycles.
func (f *Flow) origins(e ast.Expr, params map[*types.Var]int, seen map[*types.Var]bool) []int {
	union := func(exprs ...ast.Expr) []int {
		var out []int
		for _, x := range exprs {
			out = append(out, f.origins(x, params, seen)...)
		}
		return out
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		v := f.Info.VarOf(e)
		if v == nil {
			return nil
		}
		if i, ok := params[v]; ok {
			return []int{i}
		}
		if seen[v] {
			return nil
		}
		seen[v] = true
		// No visible definition means another function's parameter or
		// a captured variable: whoever provided it answers for it.
		out := union(f.Info.Defs(v)...)
		if f.Zero != nil && f.Info.ZeroValued(v) && f.Zero(v.Type()) {
			out = append(out, Source)
		}
		if f.Store != nil {
			for _, st := range f.Info.stores[v] {
				if f.Store(v, st.field) {
					out = append(out, union(st.value)...)
				}
			}
		}
		return out
	case *ast.CallExpr:
		source, through := f.Call(e, f.Info.Callee(e))
		if source {
			return []int{Source}
		}
		return union(through...)
	}
	if f.Lit != nil {
		lit, _ := e.(*ast.CompositeLit)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			switch x := ast.Unparen(u.X).(type) {
			case *ast.CompositeLit:
				lit = x
			case *ast.Ident:
				return union(x) // &v carries what v does
			case *ast.SelectorExpr:
				// &x.f: the walker follows no definition of a field, so
				// its zero value answers for it, as for a `var v T`.
				if t := f.Info.pass.TypesInfo.TypeOf(x); f.Zero != nil && t != nil && f.Zero(t) {
					return []int{Source}
				}
			}
		}
		if lit != nil {
			source, through := f.Lit(lit)
			if source {
				return []int{Source}
			}
			return union(through...)
		}
	}
	if !f.Projections {
		return nil
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return union(e.X)
	case *ast.IndexExpr:
		return union(e.X)
	case *ast.SliceExpr:
		return union(e.X)
	case *ast.StarExpr:
		return union(e.X)
	case *ast.UnaryExpr:
		return union(e.X)
	case *ast.TypeAssertExpr:
		return union(e.X)
	case *ast.KeyValueExpr:
		return union(e.Value)
	case *ast.CompositeLit:
		return union(e.Elts...)
	}
	return nil
}

// sinkArgs returns the argument positions to check when calling fn: by
// shape, by the same-package summary, or by an imported fact.
func (f *Flow) sinkArgs(fn *types.Func) []int {
	if idx := f.Sink(fn); idx != nil {
		return idx
	}
	if set := f.reach[fn]; len(set) > 0 {
		return sortedKeys(set)
	}
	return f.Import(fn)
}

// Check walks fi's body, closures included (their sinks are charged to
// the enclosing declaration). Every parameter of fi that may reach a
// sink argument joins fi's summary — Check reports whether the summary
// grew, which makes it the step of Info.Fixpoint — and report, when
// non-nil, is called for every sink call a Source may reach.
func (f *Flow) Check(fi *FuncInfo, report func(call *ast.CallExpr, callee *types.Func)) bool {
	params := f.params(fi)
	if f.reach == nil {
		f.reach = make(map[*types.Func]map[int]bool)
	}
	reach, grew := f.reach[fi.Obj], false
	ast.Inspect(fi.Node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := f.Info.Callee(call)
		if callee == nil {
			return true
		}
		flagged := false
		for _, i := range f.sinkArgs(callee) {
			if i >= len(call.Args) {
				continue
			}
			for _, o := range f.origins(call.Args[i], params, make(map[*types.Var]bool)) {
				switch {
				case o == Source:
					flagged = true
				case !reach[o]:
					if reach == nil {
						reach = make(map[int]bool)
						f.reach[fi.Obj] = reach
					}
					reach[o] = true
					grew = true
				}
			}
		}
		if flagged && report != nil {
			report(call, callee)
		}
		return true
	})
	return grew
}

// ExportSummaries publishes every non-empty summary through Export, so
// the function's callers in importing packages become sinks.
func (f *Flow) ExportSummaries() {
	for fn, set := range f.reach {
		f.Export(fn, sortedKeys(set))
	}
}

func sortedKeys(set map[int]bool) []int {
	idx := make([]int, 0, len(set))
	for i := range set {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// ArgsOfType returns the call's arguments whose type satisfies pred:
// the usual "passes through" set of an unknown callee.
func (in *Info) ArgsOfType(call *ast.CallExpr, pred func(types.Type) bool) []ast.Expr {
	var out []ast.Expr
	for _, arg := range call.Args {
		if tv, ok := in.pass.TypesInfo.Types[arg]; ok && pred(tv.Type) {
			out = append(out, arg)
		}
	}
	return out
}

// Fixpoint calls grow on every function of the package, sweep after
// sweep, until a whole sweep reports no growth: the same-package
// summary loop every fact-computing analyzer runs (imported facts are
// stable inputs).
func (in *Info) Fixpoint(grow func(*FuncInfo) bool) {
	for changed := true; changed; {
		changed = false
		for _, fi := range in.Funcs {
			if grow(fi) {
				changed = true
			}
		}
	}
}

// Returns calls visit for every return statement of fi's own body;
// nested literals' returns are their own.
func (fi *FuncInfo) Returns(visit func(*ast.ReturnStmt)) {
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			visit(n)
		}
		return true
	})
}
