package locks

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

// Lockexchange enforces the PR 1 concurrency invariant: no mutex may be
// held across a call that can block on network I/O — above all
// Transport.Exchange, the upstream query path.
//
// The seed resolver held one global lock across upstream queries, so a
// single slow authoritative server serialized every client (the exact
// failure mode the paper's §4 attack model exploits). PR 1 decomposed
// the lock and established the rule by convention; this analyzer makes
// it mechanical.
//
// Every function declared in the package is classified "may block" if
// its body contains a known-blocking call: an Exchange-shaped method
// (dataflow.ExchangeShaped), net dial/listen/conn I/O, net/http
// round-trips, or time.Sleep. That property is propagated through
// same-package static calls to a fixed point; cross-package calls are
// only recognized when they match the known-blocking shapes. Any
// may-block call the held-lock pass saw made under a lock is flagged.
var Lockexchange = &analysis.Analyzer{
	Name:     "lockexchange",
	Doc:      "flag mutexes held across Transport.Exchange or other blocking network I/O (the PR 1 invariant)",
	Requires: []*analysis.Analyzer{held},
	Run:      runLockexchange,
}

func runLockexchange(pass *analysis.Pass) (any, error) {
	const name = "lockexchange"
	h := pass.ResultOf[held].(*heldInfo)
	supp := lintutil.NewSuppressor(pass)
	// blocking marks declared functions whose call tree reaches a
	// known-blocking call without leaving the package.
	blocking := make(map[*types.Func]bool)
	h.df.Fixpoint(func(fi *dataflow.FuncInfo) bool {
		if fi.Obj == nil || blocking[fi.Obj] || !bodyMayBlock(h.df, fi.Body, blocking) {
			return false
		}
		blocking[fi.Obj] = true
		return true
	})

	for _, s := range h.sites {
		why := blockingCall(h.df.Callee(s.call), blocking)
		if why == "" || len(s.held) == 0 || lintutil.InTestFile(pass, s.call.Pos()) {
			continue
		}
		names := make([]string, len(s.held))
		for i, l := range s.held {
			names[i] = l.expr
		}
		supp.Report(pass, name, s.call.Pos(),
			"call to %s while holding %s: no lock may be held across blocking I/O (PR 1 invariant)",
			why, strings.Join(names, ", "))
	}
	supp.ReportStale(pass, name)
	return nil, nil
}

// bodyMayBlock reports whether the body contains a blocking call,
// directly or via an already-classified same-package function. Function
// literals are included: calling a function that launches blocking work
// inline still blocks.
func bodyMayBlock(df *dataflow.Info, body *ast.BlockStmt, blocking map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false // spawned work does not block the caller
		}
		if call, ok := n.(*ast.CallExpr); ok && blockingCall(df.Callee(call), blocking) != "" {
			found = true
		}
		return !found
	})
	return found
}

// blockingCall returns a human-readable description of why a call to fn
// may block, or "" if it is not known to.
func blockingCall(fn *types.Func, blocking map[*types.Func]bool) string {
	switch {
	case fn == nil:
		return ""
	case blocking[fn]:
		return fn.Name() + " (reaches blocking I/O)"
	case dataflow.ExchangeShaped(fn):
		return "Exchange (upstream query)"
	case fn.Pkg() == nil:
		return ""
	}
	method := fn.Type().(*types.Signature).Recv() != nil
	switch fn.Pkg().Path() {
	case "net":
		if strings.HasPrefix(fn.Name(), "Dial") || strings.HasPrefix(fn.Name(), "Listen") {
			return "net." + fn.Name()
		}
		if method {
			switch fn.Name() {
			case "Read", "Write", "ReadFrom", "WriteTo", "ReadFromUDP", "WriteToUDP", "ReadMsgUDP", "WriteMsgUDP", "Accept", "AcceptTCP":
				return "net connection " + fn.Name()
			}
		}
	case "net/http":
		switch fn.Name() {
		case "Get", "Post", "PostForm", "Head", "Do", "RoundTrip":
			return "net/http " + fn.Name()
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	}
	return ""
}
