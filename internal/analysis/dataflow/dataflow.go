// Package dataflow is the shared dataflow substrate for the dnslint
// suite's flow-aware analyzers (ctxdeadline, taintwire, goroleak,
// lockexchange, lockorder). The toolchain vendors
// golang.org/x/tools/go/analysis and go/cfg but not go/ssa, so this
// package plays the role buildssa plays
// for SSA-based vet tools: a single Requires-able pass that enumerates
// every function and closure in the package, indexes variable
// definitions for def-use chasing, and builds control-flow graphs on
// demand. What two analyzers would otherwise each write is here once as
// well: the value-flow walker with its per-function summaries (Flow,
// which ctxdeadline and taintwire parameterise with predicates) and the
// same-package fixed-point loop (Fixpoint).
//
// The model is deliberately simpler than SSA: values are tracked per
// *types.Var with a flow-insensitive union over that variable's
// definitions (a use sees every definition the variable has anywhere in
// the function). That is conservative in the may-analysis direction the
// analyzers need — "may this context be unbounded", "may this value be
// network-origin" — and it means rebinding a sanitized value to a fresh
// variable is how code states that the old value is gone. The CFG is
// used where statement order matters (the held-lock pass in locks).
package dataflow

import (
	"go/ast"
	"go/types"
	"reflect"
	"sync"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"
)

// Builder is the shared pass. Analyzers list it in Requires and read
// the *Info result.
var Builder = &analysis.Analyzer{
	Name:       "dnslintdataflow",
	Doc:        "builds the function/CFG/def-use index shared by the dataflow dnslint analyzers",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: reflect.TypeOf((*Info)(nil)),
	Run:        run,
}

// FuncInfo is one function body in the package: a declared function or
// method, or a function literal (Parent links a literal to its
// innermost enclosing function).
type FuncInfo struct {
	// Obj is the declared function's object; nil for function literals.
	Obj *types.Func
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Body is the function body; never nil (bodyless declarations are
	// not enumerated).
	Body *ast.BlockStmt
	// Parent is the innermost enclosing FuncInfo for literals, nil for
	// declarations.
	Parent *FuncInfo

	cfgOnce sync.Once
	cfg     *cfg.CFG
}

// CFG builds (once) and returns the function's control-flow graph.
func (fi *FuncInfo) CFG() *cfg.CFG {
	fi.cfgOnce.Do(func() {
		fi.cfg = cfg.New(fi.Body, func(*ast.CallExpr) bool { return true })
	})
	return fi.cfg
}

// Info is the Builder's per-package result.
type Info struct {
	// Funcs enumerates every function, method, and literal with a body,
	// in source order.
	Funcs []*FuncInfo
	// ByObj maps a declared function's object to its FuncInfo.
	ByObj map[*types.Func]*FuncInfo
	// byLit maps literals to their FuncInfo.
	byLit map[*ast.FuncLit]*FuncInfo
	// defs maps every variable to its defining expressions anywhere in
	// the package (variables are function-scoped, so lookups never cross
	// function boundaries in practice): the assigned expression, the
	// call whose result tuple is destructured, or the ranged-over
	// operand.
	defs map[*types.Var][]ast.Expr
	// zero marks every variable declared without an initializer
	// (`var v T`): it starts as its type's zero value, a definition with
	// no expression.
	zero map[*types.Var]bool
	// stores maps every variable to the assignments into its own fields
	// (`v.f = x`, v a struct or a pointer to one).
	stores map[*types.Var][]fieldStore

	pass *analysis.Pass
}

// fieldStore is one assignment into a field of a variable: v.field = value.
type fieldStore struct {
	field *types.Var
	value ast.Expr
}

// LitInfo returns the FuncInfo for a function literal.
func (in *Info) LitInfo(lit *ast.FuncLit) *FuncInfo { return in.byLit[lit] }

// Defs returns the defining expressions of v in the package.
func (in *Info) Defs(v *types.Var) []ast.Expr { return in.defs[v] }

// ZeroValued reports whether v is declared without an initializer, so
// that one of its values is its type's zero value.
func (in *Info) ZeroValued(v *types.Var) bool { return in.zero[v] }

// Callee resolves the static callee of call, or nil for dynamic calls
// (function values, interface methods resolve to the interface method).
func (in *Info) Callee(call *ast.CallExpr) *types.Func {
	fn, _ := typeutil.Callee(in.pass.TypesInfo, call).(*types.Func)
	return fn
}

// VarOf resolves an expression to the variable it reads or assigns,
// unwrapping parens: an identifier naming a *types.Var, or nil.
func (in *Info) VarOf(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := in.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = in.pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	in := &Info{
		ByObj:  make(map[*types.Func]*FuncInfo),
		byLit:  make(map[*ast.FuncLit]*FuncInfo),
		defs:   make(map[*types.Var][]ast.Expr),
		zero:   make(map[*types.Var]bool),
		stores: make(map[*types.Var][]fieldStore),
		pass:   pass,
	}

	// Enumerate functions with the inspector's stack walk so literals
	// get Parent links.
	var stack []*FuncInfo
	ins.Nodes([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node, push bool) bool {
		if !push {
			if len(stack) > 0 && stack[len(stack)-1].Node == n {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		var fi *FuncInfo
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return true
			}
			obj, _ := pass.TypesInfo.Defs[n.Name].(*types.Func)
			fi = &FuncInfo{Obj: obj, Node: n, Body: n.Body}
			if obj != nil {
				in.ByObj[obj] = fi
			}
		case *ast.FuncLit:
			fi = &FuncInfo{Node: n, Body: n.Body}
			if len(stack) > 0 {
				fi.Parent = stack[len(stack)-1]
			}
			in.byLit[n] = fi
		}
		in.Funcs = append(in.Funcs, fi)
		stack = append(stack, fi)
		return true
	})

	// Index variable definitions.
	ins.Preorder([]ast.Node{(*ast.AssignStmt)(nil), (*ast.ValueSpec)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			in.indexAssign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
				if v := in.VarOf(id); v != nil && len(n.Values) == 0 {
					in.zero[v] = true
				}
			}
			in.indexAssign(lhs, n.Values)
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if v := in.VarOf(e); v != nil {
					in.defs[v] = append(in.defs[v], n.X)
				}
			}
		}
	})
	return in, nil
}

func (in *Info) indexAssign(lhs, rhs []ast.Expr) {
	switch {
	case len(rhs) == 0:
		return
	case len(lhs) == len(rhs):
		for i := range lhs {
			in.indexDef(lhs[i], rhs[i])
		}
	case len(rhs) == 1:
		for i := range lhs {
			in.indexDef(lhs[i], rhs[0])
		}
	}
}

// indexDef records rhs as a definition of the variable lhs names, or as
// a store into a field of the variable when lhs is v.f.
func (in *Info) indexDef(lhs, rhs ast.Expr) {
	if v := in.VarOf(lhs); v != nil {
		in.defs[v] = append(in.defs[v], rhs)
		return
	}
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := in.pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if v := in.VarOf(sel.X); v != nil {
			in.stores[v] = append(in.stores[v], fieldStore{field: s.Obj().(*types.Var), value: rhs})
		}
	}
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// ExchangeShaped reports whether f has the transport.Transport.Exchange
// shape the suite treats as the upstream network boundary: a method
// named Exchange whose first parameter is a context.Context.
func ExchangeShaped(f *types.Func) bool {
	if f == nil || f.Name() != "Exchange" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() == 0 {
		return false
	}
	return IsContextType(sig.Params().At(0).Type())
}
