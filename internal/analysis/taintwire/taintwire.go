// Package taintwire taint-tracks network-origin bytes into the cache.
//
// The paper's poisoning defenses (bailiwick filtering, credibility
// ranking, the infra/answer split) all live in one place: the resolve
// ingest chokepoints, which classify every RRset before it touches
// cache.Put. The cache-poisoning failure mode is therefore not "the
// validator has a bug" but "somebody added a second door": a code path
// that takes bytes straight off the wire — an Exchange result, a mesh
// peer response, journal bytes replayed from disk — and writes them
// into the cache or the persistence layer without passing through the
// validators. This analyzer makes that door impossible to add quietly.
//
// It is a may-tainted dataflow: the shared value-flow walker
// (dataflow.Flow; the vendored toolchain has no go/ssa) with these
// predicates:
//
// Sources (network-origin bytes):
//   - results of Exchange-shaped methods (the transport.Transport
//     shape: method named Exchange, first parameter context.Context);
//   - results of a method named Call in a package named mesh (peer
//     responses are exactly as attacker-influenced as upstream ones);
//   - os.ReadFile in a package named persist (journal and snapshot
//     bytes were cached from the network, and disk can be tampered);
//   - calls to functions carrying the ReturnsTainted fact.
//
// Propagation is conservative: taint survives slicing, indexing,
// field selection, composite literals, conversions, append, and calls
// that pass payload-typed arguments ([]byte, dnswire types) through to
// payload-typed results — dnswire.Unpack parses hostile input, it does
// not sanitize it. Sanitization is positional, not computational: the
// only way to launder taint is to route the write through a chokepoint.
//
// Sinks: methods named Put, PutOrigin, or Restore in a package named
// cache, and Observe in a package named persist. Every argument is
// checked. A non-chokepoint function that passes its own parameter to
// a sink exports SinkViaParam, which turns its callers into sinks
// across package boundaries; a function returning source-derived
// payloads exports ReturnsTainted.
//
// Chokepoints (full names as printed by types.Func.FullName) are the
// resolve ingest chain and persist recovery: one list, the same in
// every package. Sink calls inside a chokepoint body are the sanctioned
// writes and are exempt. Test files are NOT exempt: a test that feeds
// exchanged bytes straight into cache.Put is rehearsing the bug this
// analyzer exists to prevent.
package taintwire

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"resilientdns/internal/analysis/dataflow"
	"resilientdns/internal/analysis/lintutil"
)

const name = "taintwire"

// chokepoints are the functions through which all cache/persist
// mutation must flow.
var chokepoints = map[string]bool{
	"(*resilientdns/internal/resolve.Resolver).Ingest":        true,
	"(*resilientdns/internal/resolve.Resolver).IngestFrom":    true,
	"(*resilientdns/internal/resolve.Resolver).putInfraAware": true,
	"(*resilientdns/internal/persist.Store).Recover":          true,
}

func isChokepoint(fn *types.Func) bool { return chokepoints[fn.FullName()] }

// ReturnsTainted marks a function whose results carry network-origin
// bytes (a wrapper around a source): its call sites are sources.
type ReturnsTainted struct{}

func (*ReturnsTainted) AFact() {}

func (*ReturnsTainted) String() string { return "ReturnsTainted" }

// SinkViaParam marks a function that passes the listed parameters into
// a cache/persist mutation outside any chokepoint: its callers must
// not hand it tainted bytes.
type SinkViaParam struct {
	Params []int
}

func (*SinkViaParam) AFact() {}

func (f *SinkViaParam) String() string { return "SinkViaParam" }

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "taint-track network-origin bytes (Exchange results, mesh peer responses, journal bytes) and " +
		"flag flows into cache.Put/PutOrigin/Restore or persist mutation that bypass the validated " +
		"ingest chokepoints",
	Requires:  []*analysis.Analyzer{dataflow.Builder},
	FactTypes: []analysis.Fact{(*ReturnsTainted)(nil), (*SinkViaParam)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	df := pass.ResultOf[dataflow.Builder].(*dataflow.Info)
	supp := lintutil.NewSuppressor(pass)
	// returns marks same-package functions whose results are tainted;
	// it grows in the same fixpoint as the sink summaries.
	returns := make(map[*types.Func]bool)
	flow := &dataflow.Flow{
		Info:        df,
		Param:       func(*types.Var) bool { return true },
		Projections: true,
		Call: func(call *ast.CallExpr, fn *types.Func) (bool, []ast.Expr) {
			// Type conversion: dnswire.Name(b) keeps b's taint.
			if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
				return false, call.Args
			}
			if fn != nil && (taintSource(fn, pass.Pkg) || returns[fn] || pass.ImportObjectFact(fn, new(ReturnsTainted))) {
				return true, nil
			}
			// Everything else — builtins (append, copy) and dynamic
			// calls included — passes its payload-typed arguments
			// through: Unpack parses, it does not sanitize.
			return false, df.ArgsOfType(call, payloadType)
		},
		// Every argument of a shape-recognized cache/persist mutator is
		// a sink; a chokepoint is the sanctioned destination, not one.
		Sink: func(fn *types.Func) []int {
			if isChokepoint(fn) || !sinkShaped(fn) {
				return nil
			}
			idx := make([]int, fn.Type().(*types.Signature).Params().Len())
			for i := range idx {
				idx[i] = i
			}
			return idx
		},
		Import: func(fn *types.Func) []int {
			var fact SinkViaParam
			pass.ImportObjectFact(fn, &fact)
			return fact.Params
		},
		Export: func(fn *types.Func, params []int) {
			pass.ExportObjectFact(fn, &SinkViaParam{Params: params})
		},
	}

	df.Fixpoint(func(fi *dataflow.FuncInfo) bool {
		if fi.Obj == nil {
			return false
		}
		// The sanctioned writes live in the chokepoint bodies.
		grew := !isChokepoint(fi.Obj) && flow.Check(fi, nil)
		if !returns[fi.Obj] {
			fi.Returns(func(ret *ast.ReturnStmt) {
				for _, res := range ret.Results {
					for _, o := range flow.Origins(res, fi) {
						if o == dataflow.Source {
							returns[fi.Obj] = true
						}
					}
				}
			})
			grew = grew || returns[fi.Obj]
		}
		return grew
	})
	flow.ExportSummaries()
	for fn := range returns {
		pass.ExportObjectFact(fn, &ReturnsTainted{})
	}

	for _, fi := range df.Funcs {
		if fi.Parent != nil || (fi.Obj != nil && isChokepoint(fi.Obj)) {
			continue
		}
		flow.Check(fi, func(call *ast.CallExpr, callee *types.Func) {
			supp.Report(pass, name, call.Pos(),
				"network-origin bytes flow into %s outside the validated ingest chokepoints: "+
					"route cache and persist mutation through resolve.Ingest/IngestFrom (or persist recovery)",
				callee.Name())
		})
	}
	supp.ReportStale(pass, name)
	return nil, nil
}

// sinkShaped matches the cache/persist mutation surface by shape, so
// the analyzer also fires on fixture copies under testdata.
func sinkShaped(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	pkg := fn.Pkg()
	inPkg := func(n string) bool {
		return pkg.Name() == n || strings.HasSuffix(pkg.Path(), "/"+n)
	}
	switch fn.Name() {
	case "Put", "PutOrigin", "Restore":
		return inPkg("cache")
	case "Observe":
		return inPkg("persist")
	}
	return false
}

// taintSource matches the source shapes: upstream exchanges, mesh peer
// calls, and journal reads inside the persist layer.
func taintSource(fn *types.Func, current *types.Package) bool {
	if dataflow.ExchangeShaped(fn) {
		return true
	}
	if fn.Pkg() != nil && fn.Name() == "Call" {
		if fn.Pkg().Name() == "mesh" || strings.HasSuffix(fn.Pkg().Path(), "/mesh") {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
				sig.Params().Len() > 0 && dataflow.IsContextType(sig.Params().At(0).Type()) {
				return true
			}
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "ReadFile" {
		if current.Name() == "persist" || strings.HasSuffix(current.Path(), "/persist") {
			return true
		}
	}
	return false
}

// payloadType reports whether t can carry DNS payload: byte slices and
// dnswire types (plus slices/pointers of them). Credibility scores,
// counters, and keys are not payload — taint does not ride on them.
func payloadType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		if b, ok := t.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Uint8 {
			return true
		}
		return payloadType(t.Elem())
	case *types.Pointer:
		return payloadType(t.Elem())
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg != nil &&
			(pkg.Name() == "dnswire" || strings.HasSuffix(pkg.Path(), "/dnswire")) {
			return true
		}
		return payloadType(t.Underlying())
	}
	return false
}
