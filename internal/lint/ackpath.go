package lint

import (
	"go/ast"
	"go/types"
)

// AckPath turns the fsync-before-ack contract into a dataflow check: a
// function annotated //histburst:durable-ack <syncFn> must not report
// success — return a nil error — on any path that is not preceded by a call
// to <syncFn>. The check is the same lexical-dominance approximation
// lockguard uses: a success return is satisfied by any <syncFn> call that
// appears earlier in the function body, which matches the sync-then-advance
// shape of the WAL code exactly; a success return with no earlier sync call
// (an early "nothing to do" return, or the sync call deleted outright) is a
// finding. Returns whose final result is anything but the literal nil are
// treated as failure paths and exempt.
//
// Function literals inside the body are skipped in both directions: a sync
// call inside a callback does not satisfy the outer contract, and a
// callback's returns are not the function's acks.
var AckPath = &Analyzer{
	Name: "ackpath",
	Doc:  "//histburst:durable-ack functions call the declared sync before every success return",
	Run:  runAckPath,
}

func runAckPath(p *Package) []Diagnostic {
	var out []Diagnostic
	for fn, anno := range p.Annos.Funcs {
		if anno.DurableAck == "" || fn.Body == nil {
			continue
		}
		out = append(out, checkAckPath(p, fn, anno.DurableAck)...)
	}
	return out
}

func checkAckPath(p *Package, fn *ast.FuncDecl, syncFn string) []Diagnostic {
	sig, _ := p.Info.TypeOf(fn.Name).(*types.Signature)
	if sig == nil || sig.Results().Len() == 0 ||
		!isErrorType(sig.Results().At(sig.Results().Len()-1).Type()) {
		return []Diagnostic{p.diag(fn.Pos(), "ackpath",
			"%s is annotated //histburst:durable-ack but its last result is not error; the contract needs an error to distinguish ack from refusal", fn.Name.Name)}
	}

	var syncCalls []ast.Node
	var returns []*ast.ReturnStmt
	walkOutsideFuncLits(fn.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			if calleeLeafName(x) == syncFn {
				syncCalls = append(syncCalls, x)
			}
		case *ast.ReturnStmt:
			returns = append(returns, x)
		}
	})

	var out []Diagnostic
	for _, ret := range returns {
		if !isSuccessReturn(ret) {
			continue
		}
		dominated := false
		for _, c := range syncCalls {
			if c.Pos() < ret.Pos() {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p.diag(ret.Pos(), "ackpath",
				"success return is not preceded by a %s call; //histburst:durable-ack %s requires the sync to dominate every acked return (fsync-before-ack)",
				syncFn, syncFn))
		}
	}
	return out
}

// isSuccessReturn reports whether ret reports success: a naked return (named
// results) or a final result that is the literal nil.
func isSuccessReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true
	}
	id, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.Ident)
	return ok && id.Name == "nil"
}

// calleeLeafName returns the called function's leaf identifier ("Sync" for
// w.f.Sync(), "appendLocked" for s.wal.appendLocked(...)), or "".
func calleeLeafName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// walkOutsideFuncLits visits every node in body except nested function
// literals.
func walkOutsideFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
