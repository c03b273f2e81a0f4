// Package budgetcharge checks the resource-governance charge map: every
// budget charge and fault-injection site in the engine must name its
// operator boundary with a stable trip-point label.
//
// The fault-injection sweep (faults_test.go) discovers each run's
// consulted trip points through the Budget hook and keys forced failures
// on the label, and ResourceError surfaces the label to users — so labels
// must be (a) declared Trip* string constants, never ad-hoc literals or
// computed strings, and (b) pairwise distinct. The only other accepted
// label argument is a forwarded parameter inside the charge plumbing
// itself (drainRows/Charge*/Fault/trip), whose own call
// sites are checked in turn.
package budgetcharge

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"nalquery/internal/analysis"
)

// Analyzer is the budgetcharge analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "budgetcharge",
	Doc:  "require every budget charge/fault site to carry a unique, stable Trip* label",
	Run:  run,
}

var pkgs = "nalquery/internal/algebra"

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs,
		"comma-separated import paths of the packages carrying the charge map")
}

// labelArg maps a charge/fault callee name — the charge plumbing — to the
// index of its trip-point label argument.
var labelArg = map[string]int{
	"drainRows":    1,
	"charge":       0,
	"ChargeRow":    0,
	"ChargeTuple":  0,
	"ChargeTuples": 0,
	"ChargeBytes":  0,
	"Fault":        0,
	"trip":         0,
}

func run(pass *analysis.Pass) error {
	if !analysis.ListHas(pkgs, pass.Pkg.Path()) {
		return nil
	}

	checkLabelUniqueness(pass)

	pass.Preorder(func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name := analysis.CalleeName(call)
		idx, ok := labelArg[name]
		if !ok || len(call.Args) <= idx {
			return
		}
		if strings.HasSuffix(pass.Fset.Position(call.Pos()).Filename, "_test.go") {
			return
		}
		arg := call.Args[idx]
		if ok, why := validLabel(pass, arg, stack); !ok {
			pass.Reportf(arg.Pos(),
				"budgetcharge: %s label must be a declared Trip* constant so the fault-injection charge map stays stable (%s)",
				name, why)
		}
	})
	return nil
}

// validLabel accepts a reference to a Trip* string constant, or a
// forwarded string parameter when the enclosing function is itself part
// of the charge plumbing.
func validLabel(pass *analysis.Pass, arg ast.Expr, stack []ast.Node) (bool, string) {
	var id *ast.Ident
	switch e := arg.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false, "got a non-identifier expression"
	}
	switch obj := pass.TypesInfo.Uses[id].(type) {
	case *types.Const:
		if !strings.HasPrefix(obj.Name(), "Trip") {
			return false, fmt.Sprintf("constant %s does not follow the Trip* naming scheme", obj.Name())
		}
		return true, ""
	case *types.Var:
		// The charge plumbing itself may pass its own label parameter on.
		if _, plumbing := labelArg[enclosingFuncName(stack)]; plumbing && isParamOf(pass, obj, stack) {
			return true, ""
		}
		return false, fmt.Sprintf("variable %s is not a forwarded label parameter of the charge plumbing", obj.Name())
	default:
		return false, "label does not resolve to a constant"
	}
}

func isParamOf(pass *analysis.Pass, v *types.Var, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		for _, field := range ft.Params.List {
			for _, pname := range field.Names {
				if pass.TypesInfo.Defs[pname] == v {
					return true
				}
			}
		}
		return false
	}
	return false
}

func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// checkLabelUniqueness reports Trip* string constants sharing a value:
// the fault sweep and ResourceError reporting cannot tell such
// boundaries apart.
func checkLabelUniqueness(pass *analysis.Pass) {
	seen := map[string]*types.Const{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Trip") {
			continue
		}
		if c.Val().Kind() != constant.String {
			continue
		}
		if strings.HasSuffix(pass.Fset.Position(c.Pos()).Filename, "_test.go") {
			continue
		}
		v := constant.StringVal(c.Val())
		if prev, dup := seen[v]; dup {
			pass.Reportf(c.Pos(),
				"budgetcharge: trip-point label %q of %s duplicates %s — labels must be unique across the charge map",
				v, name, prev.Name())
			continue
		}
		seen[v] = c
	}
}
