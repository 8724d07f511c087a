// Package pendingwait defines an analyzer that checks that every
// comm.Pending handle is waited, carried, or handed off on all paths.
//
// # Invariant
//
// A comm.Pending returned by a collective (IAllGatherQ,
// IAlltoAllTensorsQ, ...) is an open obligation on its rank's mailbox
// ordering: handles must be waited in issue order, and a handle that is
// never Wait()ed leaves payloads queued in peer mailboxes, which the next
// collective on the group will misinterpret as its own. The runtime only
// catches this late — Wait panics when a later handle is waited first,
// checkIdle at the next Barrier, AssertDrained at teardown — and only on
// executions that reach those guards. This analyzer makes the obligation a compile-time property:
// on every control-flow path from the call that produced the handle to
// the function's return, the handle must reach Wait(), Carry(), or an
// ownership transfer (stored into a struct or slice such as the trainer's
// bucket arena, passed to another function, returned, or captured by a
// closure — whoever holds it then owns the obligation).
//
// # Suppression
//
//	h := c.IAllGatherQ(s, x) //dmt:pending-ok <reason>
//
// A justified marker on (or immediately above) the acquisition line
// suppresses the diagnostic; tests that deliberately leak a handle to
// exercise the runtime guards use this.
package pendingwait

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"dmt/internal/analysis/directive"
	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/flow"
)

// Marker is the suppression directive, without the leading "//".
const Marker = "dmt:pending-ok"

var Analyzer = &analysis.Analyzer{
	Name:     "pendingwait",
	Doc:      "check that every comm.Pending is waited, carried, or transferred on all paths",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func classify(method string) flow.Class {
	if method == "Wait" || method == "Carry" {
		return flow.Satisfy
	}
	return flow.Neutral
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	supp := directive.New(pass, Marker)

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		tv, ok := pass.TypesInfo.Types[call]
		if !ok || !dmtpkg.IsNamed(tv.Type, "comm", "Pending") {
			return true
		}
		binding, id, bindStmt, method := flow.Bind(stack)
		switch binding {
		case flow.BindDiscard, flow.BindBlank:
			supp.Report(call.Pos(), "comm.Pending from %s is dropped without Wait or Carry: the handle leaks and the next collective on the group will panic or misdeliver", callName(call))
		case flow.BindRecv:
			if classify(method) != flow.Satisfy {
				supp.Report(call.Pos(), "comm.Pending from %s is consumed by %s without Wait or Carry", callName(call), method)
			}
		case flow.BindVar:
			v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
			if v == nil {
				return true
			}
			tr := &flow.Tracker{
				Info:           pass.TypesInfo,
				Var:            v,
				Creation:       bindStmt,
				ClassifyMethod: classify,
			}
			if g := EnclosingCFG(cfgs, stack); g != nil {
				if _, leaks := flow.Leaks(g, tr); leaks {
					supp.Report(call.Pos(), "comm.Pending %q from %s may reach a return without Wait or Carry", id.Name, callName(call))
				}
			}
		}
		return true
	})
	return nil, nil
}

// EnclosingCFG returns the control-flow graph of the innermost function
// declaration or literal on the inspector stack, or nil at package scope.
// Shared with the retainrelease analyzer, which walks the same way.
func EnclosingCFG(cfgs *ctrlflow.CFGs, stack []ast.Node) *cfg.CFG {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return cfgs.FuncLit(f)
		case *ast.FuncDecl:
			return cfgs.FuncDecl(f)
		}
	}
	return nil
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	case *ast.IndexExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return "call"
}
