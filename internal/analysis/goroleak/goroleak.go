// Package goroleak flags goroutines that can never be stopped.
//
// The long-lived components of this system — the caching server core,
// the resolve pipeline, the client guard, the mesh, persistence, the
// debug endpoint — run background loops for renewals, prefetch,
// journal flushing, gossip, and sweeping. Under the paper's attack
// model these loops multiply: a resolver that leaks one goroutine per
// reload, per reconnect, or per failed upstream eventually dies of its
// own defenses (and a leaked renewal loop keeps hammering upstreams
// that asked us to stop). The invariant: every goroutine started in a
// long-lived component must be stoppable — its loop has to observe
// ctx.Done(), a stop channel, or terminate on its own.
//
// Detection is a leak-shape analysis over the shared dataflow index:
//
//   - an infinite loop (`for { ... }`) is unstoppable if it contains no
//     return, no break out of the loop, no goto, and no receive from —
//     or range over — a non-timer channel. Receiving from a
//     time.Ticker/time.Timer channel or time.After/time.Tick does NOT
//     count: timers fire forever, they never say "stop" (`for range
//     time.Tick(d)` is the classic leak). A stop channel or ctx.Done()
//     receive does count, as does ranging over a work channel that the
//     owner closes on shutdown.
//   - a function containing an unstoppable loop — or calling, on any
//     path, a function that does — is Leaky. Leaky is an object fact,
//     so the property crosses package boundaries: spawning an imported
//     run-forever helper is flagged in the package that wrote `go`.
//   - every `go` statement in a scoped package whose callee (named
//     function, method, or function literal) is Leaky is reported at
//     the spawn site, which is where the fix belongs.
//
// Reporting is scoped (lintutil.Scope) to the long-lived components
// plus the daemon mains; fact computation runs everywhere. Deliberately out of
// scope, by design rather than Makefile wiring: short-lived CLIs
// (dnsquery and dnssim exit when their work is done, and the OS
// is their goroutine collector), the simulator/experiments tree (the
// virtual clock drives explicit steps, not goroutines), and _test.go
// files (the test binary exits; goleak-style churn there would add
// noise, not resilience).
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

const name = "goroleak"

// Leaky marks a function that, once entered, may run forever without
// observing any stop signal: it must not be the body of a goroutine.
type Leaky struct{}

func (*Leaky) AFact() {}

func (*Leaky) String() string { return "Leaky" }

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag go statements in long-lived components whose goroutine can never be stopped " +
		"(no ctx.Done(), stop channel, or termination on any path)",
	Requires:  []*analysis.Analyzer{dataflow.Builder},
	FactTypes: []analysis.Fact{(*Leaky)(nil)},
	Run:       run,
}

type checker struct {
	pass *analysis.Pass
	df   *dataflow.Info
	supp *lintutil.Suppressor
	// leaky holds the same-package fixpoint over declarations and
	// function literals.
	leaky map[*dataflow.FuncInfo]bool
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:  pass,
		df:    pass.ResultOf[dataflow.Builder].(*dataflow.Info),
		supp:  lintutil.NewSuppressor(pass),
		leaky: make(map[*dataflow.FuncInfo]bool),
	}

	c.df.Fixpoint(func(fi *dataflow.FuncInfo) bool {
		if c.leaky[fi] || !c.isLeaky(fi) {
			return false
		}
		c.leaky[fi] = true
		if fi.Obj != nil {
			pass.ExportObjectFact(fi.Obj, &Leaky{})
		}
		return true
	})

	// Out of scope no finding can exist, so every directive is stale.
	if lintutil.InScope(pass) {
		for _, fi := range c.df.Funcs {
			if fi.Parent == nil {
				c.checkSpawns(fi)
			}
		}
	}
	c.supp.ReportStale(pass, name)
	return nil, nil
}

// isLeaky reports whether fi's own body (nested literals excluded —
// they are their own FuncInfo) contains an unstoppable infinite loop
// or a plain call to a leaky function.
func (c *checker) isLeaky(fi *dataflow.FuncInfo) bool {
	found := false
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			if li := c.df.LitInfo(s); li != nil && li != fi {
				return false
			}
		case *ast.GoStmt:
			// Work handed to another goroutine does not pin this one.
			return false
		case *ast.ForStmt:
			if s.Cond == nil && c.unstoppable(s.Body) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			// Ranging over a timer channel is an infinite loop in
			// disguise: the ticker never closes.
			if c.timerChan(s.X) && c.unstoppable(s.Body) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if c.calleeLeaky(c.df.Callee(s)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// calleeLeaky reports whether fn is leaky: by the same-package fixpoint
// state, or by an imported fact. Cross-package propagation stops at the
// standard library: stdlib calls are assumed to return (its rare
// run-forever loops exit via panic or runtime machinery this shape
// analysis cannot see, and treating fmt.Sprintf as leaky would poison
// every caller in the repo).
func (c *checker) calleeLeaky(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if target, ok := c.df.ByObj[fn]; ok {
		return c.leaky[target]
	}
	return fn.Pkg() != nil && !stdlibPkg(fn.Pkg().Path()) && c.pass.ImportObjectFact(fn, new(Leaky))
}

// unstoppable reports whether an infinite loop body offers no way out:
// no return, no goto, no break of this loop, and no receive from (or
// range over) a non-timer channel. nested tracks constructs that
// capture an unlabeled break.
func (c *checker) unstoppable(body *ast.BlockStmt) bool {
	escape := false
	c.scanEscape(body, false, &escape)
	return !escape
}

func (c *checker) scanEscape(n ast.Node, nested bool, escape *bool) {
	if n == nil || *escape {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if *escape || m == nil {
			return false
		}
		switch s := m.(type) {
		case *ast.FuncLit:
			return false // its returns and receives are its own
		case *ast.ReturnStmt:
			*escape = true
			return false
		case *ast.BranchStmt:
			if s.Tok == token.GOTO || (s.Tok == token.BREAK && (!nested || s.Label != nil)) {
				*escape = true
			}
			return false
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && !c.timerChan(s.X) {
				*escape = true
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := c.pass.TypesInfo.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !c.timerChan(s.X) {
					*escape = true
					return false
				}
			}
			c.scanEscape(s.X, nested, escape)
			c.scanEscape(s.Body, true, escape)
			return false
		case *ast.ForStmt:
			c.scanEscape(s.Init, nested, escape)
			c.scanEscape(s.Cond, nested, escape)
			c.scanEscape(s.Post, nested, escape)
			c.scanEscape(s.Body, true, escape)
			return false
		case *ast.SwitchStmt:
			c.scanEscape(s.Init, nested, escape)
			c.scanEscape(s.Tag, nested, escape)
			c.scanEscape(s.Body, true, escape)
			return false
		case *ast.TypeSwitchStmt:
			c.scanEscape(s.Init, nested, escape)
			c.scanEscape(s.Assign, nested, escape)
			c.scanEscape(s.Body, true, escape)
			return false
		case *ast.SelectStmt:
			c.scanEscape(s.Body, true, escape)
			return false
		}
		return true
	})
}

// stdlibPkg reports whether the import path is standard library: its
// first element carries no dot (module paths start with a domain;
// fixture packages under testdata have a single element and no dot,
// but they are never a *cross*-package fact source in tests).
func stdlibPkg(path string) bool {
	first := path
	if i := strings.IndexByte(first, '/'); i >= 0 {
		first = first[:i]
	}
	return !strings.Contains(first, ".")
}

// timerChan reports whether the channel expression is a timer: a
// time.Ticker/time.Timer .C field, or time.After/time.Tick/NewTicker
// results. Timers fire forever; they are not stop signals.
func (c *checker) timerChan(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name != "C" {
			return false
		}
		t := c.pass.TypesInfo.TypeOf(x.X)
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "time" {
			return named.Obj().Name() == "Ticker" || named.Obj().Name() == "Timer"
		}
	case *ast.CallExpr:
		if fn := c.df.Callee(x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			return fn.Name() == "After" || fn.Name() == "Tick"
		}
	case *ast.Ident:
		// A timer channel stored in a variable: chase single-definition
		// bindings (tick := time.Tick(d)).
		if v := c.df.VarOf(x); v != nil {
			defs := c.df.Defs(v)
			if len(defs) == 1 {
				return c.timerChan(defs[0])
			}
		}
	}
	return false
}

// checkSpawns reports go statements whose goroutine is leaky.
func (c *checker) checkSpawns(fi *dataflow.FuncInfo) {
	ast.Inspect(fi.Node, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lintutil.InTestFile(c.pass, g.Pos()) {
			return true
		}
		var what string
		switch fun := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			if li := c.df.LitInfo(fun); li != nil && c.leaky[li] {
				what = "this goroutine"
			}
		default:
			if fn := c.df.Callee(g.Call); c.calleeLeaky(fn) {
				what = fn.Name()
			}
		}
		if what != "" {
			c.supp.Report(c.pass, name, g.Pos(),
				"%s can never be stopped: its loop observes no ctx.Done() or stop channel "+
					"(timer ticks are not stop signals); add a cancellation case or bound the loop",
				what)
		}
		return true
	})
}
