// Package mustparse makes PR 8's manual MustParse audit permanent.
//
// MustParse/MustParseString panic on malformed input, so the
// panic-freedom contract of the public boundaries (Engine.Compile,
// Prepare, the HTTP handlers: arbitrary input yields a typed error)
// requires them to never sit on a production input path. The rule:
//
//   - calls in _test.go files are allowed (test inputs are authored);
//   - calls in the allowed experiment packages (-allowpkgs, default
//     nalquery/internal/experiments) are allowed only with a
//     compile-time-constant string argument;
//   - every other call site is a finding.
package mustparse

import (
	"go/ast"
	"go/constant"
	"strings"

	"nalquery/internal/analysis"
)

// Analyzer is the mustparse analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mustparse",
	Doc:  "confine MustParse/MustParseString to _test.go files and experiment packages with constant-string arguments",
	Run:  run,
}

var allowPkgs = "nalquery/internal/experiments"

// funcs are the panicking parse helpers.
var funcs = map[string]bool{"MustParse": true, "MustParseString": true}

func init() {
	Analyzer.Flags.StringVar(&allowPkgs, "allowpkgs", allowPkgs,
		"comma-separated import paths allowed to call MustParse outside tests (constant args only)")
}

func run(pass *analysis.Pass) error {
	pass.Preorder(func(n ast.Node, _ []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name := analysis.CalleeName(call)
		if !funcs[name] {
			return
		}
		pos := pass.Fset.Position(call.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return
		}
		if !analysis.ListHas(allowPkgs, pass.Pkg.Path()) {
			pass.Reportf(call.Pos(),
				"mustparse: %s panics on malformed input and is confined to _test.go files and %s — parse with the error-returning form instead",
				name, allowPkgs)
			return
		}
		if len(call.Args) == 0 {
			return
		}
		tv := pass.TypesInfo.Types[call.Args[0]]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(call.Args[0].Pos(),
				"mustparse: %s outside tests requires a compile-time constant string argument (the panic-freedom audit must be decidable statically)",
				name)
		}
	})
	return nil
}
