// Package locks holds the two mutex invariants, lockexchange and
// lockorder, over one held-lock pass.
//
// The pass (held, below) runs a forward may-held dataflow over each
// function's control-flow graph (dataflow.FuncInfo.CFG; the toolchain
// has no go/ssa): sync.Mutex/RWMutex Lock/RLock adds a lock, an inline
// Unlock/RUnlock removes it, a deferred unlock holds to function end,
// and the held sets of joining paths are unioned. Function literals and
// goroutines are their own flows and start with nothing held — a
// closure defined under a lock does not run under it, and a `go`
// statement's spawner does not wait. What comes out is every call made
// while a lock may be held, and every acquisition with the locks held
// at that point; the two analyzers only read that list.
//
// A held lock has two identities. Its receiver expression ("r.mu",
// "state") tells instances apart — releasing a.mu leaves b.mu held —
// and is what lockexchange prints. Its declaration (pkg.Type.field,
// pkg.var; empty for locals) is the same for every instance, which is
// what an acquisition *order* must be stated over, so lockorder uses it.
package locks

import (
	"go/ast"
	"go/types"
	"maps"
	"reflect"
	"sort"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
)

// lock is one mutex as the pass sees it.
type lock struct {
	expr string // receiver expression: the instance
	decl string // declaration identity; "" for locals and unrecognized shapes
}

// site is one call reached while locks may be held, or one acquisition.
type site struct {
	call *ast.CallExpr
	// held lists the locks that may be held when the call starts,
	// sorted by expr.
	held []lock
	// acquired is the lock the call takes; zero for any other call.
	acquired lock
}

// heldInfo is the pass result.
type heldInfo struct {
	pass *analysis.Pass
	df   *dataflow.Info
	// sites lists, per function in source order, every acquisition and
	// every other call made with at least one lock held.
	sites []site
}

var held = &analysis.Analyzer{
	Name:       "dnslintheld",
	Doc:        "computes the may-held mutex set at every call, shared by lockexchange and lockorder",
	Requires:   []*analysis.Analyzer{dataflow.Builder},
	ResultType: reflect.TypeOf((*heldInfo)(nil)),
	Run: func(pass *analysis.Pass) (any, error) {
		h := &heldInfo{pass: pass, df: pass.ResultOf[dataflow.Builder].(*dataflow.Info)}
		for _, fi := range h.df.Funcs {
			h.flow(fi)
		}
		return h, nil
	},
}

// flow runs the may-held dataflow over fi's CFG to its fixed point,
// then replays each reachable block once to record the sites.
func (h *heldInfo) flow(fi *dataflow.FuncInfo) {
	g := fi.CFG()
	if g == nil || len(g.Blocks) == 0 {
		return
	}
	in := make([]map[string]string, len(g.Blocks))
	in[0] = map[string]string{}
	work := []int32{0}
	for len(work) > 0 {
		b := g.Blocks[work[len(work)-1]]
		work = work[:len(work)-1]
		out := maps.Clone(in[b.Index])
		for _, n := range b.Nodes {
			h.transfer(n, out, false)
		}
		for _, succ := range b.Succs {
			if union(&in[succ.Index], out) {
				work = append(work, succ.Index)
			}
		}
	}
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		out := maps.Clone(in[b.Index])
		for _, n := range b.Nodes {
			h.transfer(n, out, true)
		}
	}
}

// transfer applies one CFG node to the held set (expr → decl),
// recording sites when asked. A defer or go statement evaluates its
// arguments now and runs its call later, elsewhere: a deferred unlock
// therefore keeps the lock held to the end of the function.
func (h *heldInfo) transfer(n ast.Node, set map[string]string, record bool) {
	visit := func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		l, acquire, release := h.lockOp(call)
		switch {
		case release:
			delete(set, l.expr)
		case acquire:
			if record {
				h.sites = append(h.sites, site{call: call, held: sortedLocks(set), acquired: l})
			}
			set[l.expr] = l.decl
		case record && len(set) > 0:
			h.sites = append(h.sites, site{call: call, held: sortedLocks(set)})
		}
		return true
	}
	var later *ast.CallExpr
	switch s := n.(type) {
	case *ast.DeferStmt:
		later = s.Call
	case *ast.GoStmt:
		later = s.Call
	default:
		ast.Inspect(n, visit)
		return
	}
	for _, arg := range later.Args {
		ast.Inspect(arg, visit)
	}
}

// lockOp classifies a call as a mutex acquire or inline release.
func (h *heldInfo) lockOp(call *ast.CallExpr) (l lock, acquire, release bool) {
	fn := h.df.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lock{}, false, false
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		acquire = true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		release = true
	default:
		return lock{}, false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lock{}, false, false
	}
	return lock{expr: types.ExprString(sel.X), decl: h.declName(sel.X)}, acquire, release
}

// declName names the mutex expression by its declaration: a field
// selector becomes pkg.Type.field, a package-level var becomes
// pkg.var. Locals and unrecognized shapes are anonymous ("").
func (h *heldInfo) declName(e ast.Expr) string {
	info := h.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok {
			// Qualified package identifier: pkgname.Var.
			if id, ok := e.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok {
					return pn.Imported().Path() + "." + e.Sel.Name
				}
			}
			return ""
		}
		t := sel.Recv()
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

func sortedLocks(set map[string]string) []lock {
	out := make([]lock, 0, len(set))
	for expr, decl := range set {
		out = append(out, lock{expr, decl})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].expr < out[j].expr })
	return out
}

// union merges src into *dst, allocating it if needed; reports change.
func union(dst *map[string]string, src map[string]string) bool {
	if *dst == nil {
		*dst = maps.Clone(src)
		return true
	}
	changed := false
	for k, v := range src {
		if _, ok := (*dst)[k]; !ok {
			(*dst)[k] = v
			changed = true
		}
	}
	return changed
}
