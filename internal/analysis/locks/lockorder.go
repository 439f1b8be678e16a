package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

// Lockorder proves the fleet of fine-grained mutexes is acquired in one
// global order.
//
// PR 1 split the seed's single global lock into per-shard, per-zone,
// and per-component mutexes so one slow upstream cannot serialize the
// resolver — and PRs 3–7 kept adding locks (persist store, upstream
// tracker, mesh node, guard limiter, renewal and flight registries).
// The price of that decomposition is deadlock by lock-order inversion:
// two components that each take the other's lock second freeze the
// whole server the first time an attack drives both paths
// concurrently. The invariant: the acquisition graph over named locks
// must stay acyclic.
//
//   - a lock is named by its declaration (see the package comment). Two
//     shards of one sharded map are the same name — self-edges are
//     skipped, because sharded containers order their own shards (the
//     cache does, by index).
//   - acquiring b where the held-lock pass has a held emits edge a→b.
//   - each function exports an Acquires fact (every lock its call tree
//     may take), so calling into another package while holding a lock
//     emits the cross-package edges at the call site; each package
//     exports its edge list as a Graph package fact.
//   - a report fires at every current-package edge that closes a cycle
//     in the union of the local and imported graphs — the importing
//     package that completes an inversion is the one told about it.
//
// Test files are analyzed like any other code: a deadlock in a test
// hangs CI just as dead as production.
var Lockorder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "track named-mutex acquisition order across functions and packages and flag " +
		"lock-order cycles (deadlock by inversion)",
	Requires:  []*analysis.Analyzer{held},
	FactTypes: []analysis.Fact{(*Acquires)(nil), (*Graph)(nil)},
	Run:       runLockorder,
}

// Acquires lists every lock a function's call tree may take, so
// callers holding a lock see the edges a call implies.
type Acquires struct {
	Locks []string
}

func (*Acquires) AFact() {}

func (f *Acquires) String() string { return "Acquires" }

// Edge is one observed acquisition order: To was acquired while From
// was held.
type Edge struct {
	From, To string
}

// Graph is the per-package acquisition graph, exported as a package
// fact so importers can detect cross-package inversions.
type Graph struct {
	Edges []Edge
}

func (*Graph) AFact() {}

func (f *Graph) String() string { return "Graph" }

type orderChecker struct {
	pass *analysis.Pass
	h    *heldInfo
	// acquires is the same-package may-acquire fixpoint.
	acquires map[*types.Func]map[string]bool
}

func runLockorder(pass *analysis.Pass) (any, error) {
	const name = "lockorder"
	c := &orderChecker{
		pass:     pass,
		h:        pass.ResultOf[held].(*heldInfo),
		acquires: make(map[*types.Func]map[string]bool),
	}
	supp := lintutil.NewSuppressor(pass)

	// May-acquire fixpoint: direct acquisitions plus callees'.
	c.h.df.Fixpoint(func(fi *dataflow.FuncInfo) bool { return fi.Obj != nil && c.growAcquires(fi) })
	for fn, set := range c.acquires {
		if len(set) > 0 {
			pass.ExportObjectFact(fn, &Acquires{Locks: sortedNames(set)})
		}
	}

	// This package's acquisition orders: the first occurrence of an
	// edge is where it is reported. Self-edges are the sharded-lock
	// pattern and are skipped.
	edges := make(map[Edge]token.Pos)
	var order []Edge
	for _, s := range c.h.sites {
		targets := []string{s.acquired.decl}
		if s.acquired == (lock{}) {
			targets = c.calleeAcquires(s.call)
		}
		for _, from := range s.held {
			for _, to := range targets {
				e := Edge{From: from.decl, To: to}
				if _, seen := edges[e]; from.decl != "" && to != "" && from.decl != to && !seen {
					edges[e] = s.call.Pos()
					order = append(order, e)
				}
			}
		}
	}

	// Publish this package's graph.
	if len(order) > 0 {
		g := &Graph{Edges: append([]Edge(nil), order...)}
		sort.Slice(g.Edges, func(i, j int) bool {
			return g.Edges[i].From+"\x00"+g.Edges[i].To < g.Edges[j].From+"\x00"+g.Edges[j].To
		})
		pass.ExportPackageFact(g)
	}

	// Build the full graph (own + imported) and report every own edge
	// that closes a cycle.
	adj := make(map[string][]string)
	for _, e := range order {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, pf := range pass.AllPackageFacts() {
		if g, ok := pf.Fact.(*Graph); ok && pf.Package != pass.Pkg {
			for _, e := range g.Edges {
				adj[e.From] = append(adj[e.From], e.To)
			}
		}
	}
	for _, e := range order {
		if reaches(adj, e.To, e.From) {
			supp.Report(pass, name, edges[e],
				"acquiring %s while holding %s completes a lock-order cycle (another path acquires them "+
					"in the opposite order): establish a single acquisition order", e.To, e.From)
		}
	}
	supp.ReportStale(pass, name)
	return nil, nil
}

// reaches reports whether `from` can reach `to` in the acquisition
// graph.
func reaches(adj map[string][]string, from, to string) bool {
	seen := map[string]bool{from: true}
	work := []string{from}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range adj[n] {
			if m == to {
				return true
			}
			if !seen[m] {
				seen[m] = true
				work = append(work, m)
			}
		}
	}
	return false
}

// growAcquires updates fi's may-acquire set; reports whether it grew.
func (c *orderChecker) growAcquires(fi *dataflow.FuncInfo) bool {
	set := c.acquires[fi.Obj]
	if set == nil {
		set = make(map[string]bool)
		c.acquires[fi.Obj] = set
	}
	before := len(set)
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if l, acquire, _ := c.h.lockOp(call); acquire && l.decl != "" {
			set[l.decl] = true
			return true
		}
		for _, l := range c.calleeAcquires(call) {
			set[l] = true
		}
		return true
	})
	return len(set) != before
}

// calleeAcquires returns the locks the call's static callee may take.
func (c *orderChecker) calleeAcquires(call *ast.CallExpr) []string {
	fn := c.h.df.Callee(call)
	if fn == nil {
		return nil
	}
	if set, ok := c.acquires[fn]; ok {
		return sortedNames(set)
	}
	var fact Acquires
	c.pass.ImportObjectFact(fn, &fact)
	return fact.Locks
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for l := range set {
		names = append(names, l)
	}
	sort.Strings(names)
	return names
}
