// Package panicdiscipline enforces the engine's recover-at-boundary
// contract: inside the engine packages the one sanctioned panic is the
// resource-budget trip (a *ResourceTrip payload, recovered into a typed
// error at the public Run/Results boundary). Every other panic must
// either be removed or carry an explicit justification:
//
//	//nal:allow-panic <reason>
//
// on the line directly above (or trailing the line of) the panic call.
// An annotation without a reason is itself a finding — the reason is the
// review record for why the recover contract cannot erode through this
// site.
//
// Test files are exempt: the contract protects production input paths.
package panicdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"nalquery/internal/analysis"
)

// Analyzer is the panicdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "panicdiscipline",
	Doc:  "forbid raw panic in engine packages outside the sanctioned ResourceTrip site unless annotated //nal:allow-panic <reason>",
	Run:  run,
}

// tripType is the sanctioned panic payload type.
const tripType = "ResourceTrip"

var pkgs = "nalquery," +
	"nalquery/internal/algebra," +
	"nalquery/internal/core," +
	"nalquery/internal/value," +
	"nalquery/internal/xpath," +
	"nalquery/internal/dom," +
	"nalquery/internal/xquery"

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs,
		"comma-separated import paths of the engine packages the discipline applies to")
}

func run(pass *analysis.Pass) error {
	if !analysis.ListHas(pkgs, pass.Pkg.Path()) {
		return nil
	}
	allowed := pass.Annotations("allow-panic")

	pass.Preorder(func(n ast.Node, _ []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return
		}
		if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
			return
		}
		pos := pass.Fset.Position(call.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return
		}
		if len(call.Args) == 1 && isTripPayload(pass, call.Args[0]) {
			return
		}
		if reason, ok := allowed(call.Pos()); ok {
			if reason == "" {
				pass.Reportf(call.Pos(),
					"panicdiscipline: //nal:allow-panic annotation needs a reason (//nal:allow-panic <why this cannot erode the recover contract>)")
			}
			return
		}
		pass.Reportf(call.Pos(),
			"panicdiscipline: raw panic in engine package %s — the engine's one sanctioned panic is the *%s budget trip; return an error, or annotate //nal:allow-panic <reason>",
			pass.Pkg.Path(), tripType)
	})
	return nil
}

func isTripPayload(pass *analysis.Pass, arg ast.Expr) bool {
	t := pass.TypesInfo.Types[arg].Type
	if t == nil {
		return false
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == tripType
}
