// Package maporder flags map iteration that feeds deterministic output.
//
// Go randomizes map iteration order on purpose. results_full.txt is
// frozen byte-for-byte (the PR 3 reproducibility contract), experiment
// tables are diffed across runs, and persisted journals are replayed in
// write order — so a `for k := range m` that prints, writes, or records
// inside its body makes output depend on the iteration seed. The fix is
// the collect-then-sort idiom: gather keys into a slice, sort it, and
// range over the slice. That idiom is deliberately not flagged: a loop
// body that only collects (appends, counts, builds another map) is
// order-insensitive.
//
// The analyzer fires on a range over a map (in the
// deterministic-output packages of lintutil.Scope) whose body directly emits: fmt
// printing, io.Writer-style Write*/Fprint methods, or calls to
// journal/stats sinks named Observe, Record, or Emit.
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"resilientdns/internal/analysis/lintutil"
)

const name = "maporder"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag range-over-map loops that print, write, or record in their body: map order is random, " +
		"so emitted output must go through the collect-then-sort idiom",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// emitMethods are method names that send data somewhere order matters:
// io.Writer and strings.Builder shapes, table/stats sinks, and the
// persist journal hook.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Observe": true, "Record": true, "Emit": true,
}

func run(pass *analysis.Pass) (any, error) {
	supp := lintutil.NewSuppressor(pass)
	if !lintutil.InScope(pass) {
		// Out of scope: any maporder ignore directive here is stale.
		supp.ReportStale(pass, name)
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rng := n.(*ast.RangeStmt)
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		if lintutil.InTestFile(pass, rng.Pos()) {
			return
		}
		if emit := firstEmission(pass, rng.Body); emit != "" {
			supp.Report(pass, name, rng.Pos(),
				"map iteration order feeds output via %s: collect keys, sort, then emit (map order is randomized)", emit)
		}
	})
	supp.ReportStale(pass, name)
	return nil, nil
}

// firstEmission returns a description of the first output-emitting call
// directly inside the loop body, or "". Function literals are skipped:
// a closure built in the loop runs later, typically after sorting.
func firstEmission(pass *analysis.Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
			found = "fmt." + fn.Name()
			return false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
			found = "fmt." + fn.Name()
			return false
		}
		sig, isSig := fn.Type().(*types.Signature)
		if isSig && sig.Recv() != nil && emitMethods[fn.Name()] {
			found = fn.Name() + " on " + types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg))
			return false
		}
		return true
	})
	return found
}
