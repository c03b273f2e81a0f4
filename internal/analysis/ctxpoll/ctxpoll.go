// Package ctxpoll enforces the engine's cancellation contract at its
// scan producers: any function that charges tuples under the TripScan
// label (the Υ/IndexScan tuple-producing loops) must also poll
// cancellation — a Cancelled() call inside a loop of the same function.
//
// Scan producers are where unbounded work originates; every other
// operator consumes what a scan produced. A scan loop that charges the
// budget but never polls Cancelled() keeps a cancelled or deadline-
// expired run burning CPU until its next pipeline breaker, which is
// exactly the degradation mode the per-request deadline tier (PR 6) and
// budget tier (PR 7) exist to prevent.
package ctxpoll

import (
	"go/ast"
	"strings"

	"nalquery/internal/analysis"
)

// Analyzer is the ctxpoll analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "require tuple-producing scan loops (TripScan charge sites) to poll cancellation in-loop",
	Run:  run,
}

const (
	scanLabel = "TripScan"  // trip-point label that marks a scan-producer charge site
	pollName  = "Cancelled" // the cancellation poll method
)

func run(pass *analysis.Pass) error {
	// Cache the poll check per enclosing function node.
	polled := map[ast.Node]bool{}

	pass.Preorder(func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isScanLabel(call.Args[0]) {
			return
		}
		if strings.HasSuffix(pass.Fset.Position(call.Pos()).Filename, "_test.go") {
			return
		}
		fn := enclosingFunc(stack)
		if fn == nil {
			return
		}
		ok, cached := polled[fn]
		if !cached {
			ok = hasLoopPoll(fn)
			polled[fn] = ok
		}
		if !ok {
			pass.Reportf(call.Pos(),
				"ctxpoll: scan loop charges %s but its function never polls %s() inside a loop — a cancelled run would keep scanning until the next pipeline breaker",
				scanLabel, pollName)
		}
	})
	return nil
}

func isScanLabel(arg ast.Expr) bool {
	switch e := arg.(type) {
	case *ast.Ident:
		return e.Name == scanLabel
	case *ast.SelectorExpr:
		return e.Sel.Name == scanLabel
	}
	return false
}

func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// hasLoopPoll reports whether fn contains a for/range statement whose
// body calls the cancellation poll. Nested function literals are their
// own scan contexts and do not satisfy the enclosing function's poll
// obligation.
func hasLoopPoll(fn ast.Node) bool {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch l := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if loopPolls(l.Body) {
				found = true
			}
		case *ast.RangeStmt:
			if loopPolls(l.Body) {
				found = true
			}
		}
		return !found
	})
	return found
}

func loopPolls(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && analysis.CalleeName(call) == pollName {
			found = true
		}
		return !found
	})
	return found
}
