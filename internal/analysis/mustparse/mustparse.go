// Package mustparse confines two kinds of call to where they are safe.
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
//
// Op.Eval is the definitional evaluator: the oracle the row engine is
// differential-tested against, not a way to run a plan. An operator's Eval
// (a type with Eval, Children and MapChildren is an operator) may be called
// from a method named Eval or Apply — the evaluator's own recursion — and
// from _test.go files; any other call site needs
//
//	//nal:reference-engine <reason>
//
// on the line directly above (or trailing the line of) the call, and an
// annotation without a reason is itself a finding.
package mustparse

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"nalquery/internal/analysis"
)

// Analyzer is the mustparse analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mustparse",
	Doc:  "confine MustParse/MustParseString to _test.go files and experiment packages with constant-string arguments, and Op.Eval to the definitional evaluator and annotated reference-engine sites",
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
	reference := pass.Annotations("reference-engine")

	pass.Preorder(func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name := analysis.CalleeName(call)
		pos := pass.Fset.Position(call.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return
		}
		if name == "Eval" && isOperator(pass, call) && !inEvaluator(stack) {
			switch reason, ok := reference(call.Pos()); {
			case !ok:
				pass.Reportf(call.Pos(),
					"mustparse: Op.Eval is the definitional evaluator, the oracle of the row engine: call it from Eval/Apply methods and tests only, or annotate //nal:reference-engine <reason>")
			case reason == "":
				pass.Reportf(call.Pos(),
					"mustparse: //nal:reference-engine annotation needs a reason (//nal:reference-engine <why the definitional evaluator runs here>)")
			}
			return
		}
		if !funcs[name] {
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

// isOperator reports whether the call selects a method of an algebraic
// operator: a type that, besides Eval, has Children and MapChildren.
func isOperator(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return false
	}
	for _, m := range []string{"Children", "MapChildren"} {
		if obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, m); obj == nil {
			return false
		}
	}
	return true
}

// inEvaluator reports whether the innermost enclosing declaration is a
// method named Eval or Apply.
func inEvaluator(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Recv != nil && (fd.Name.Name == "Eval" || fd.Name.Name == "Apply")
		}
	}
	return false
}
