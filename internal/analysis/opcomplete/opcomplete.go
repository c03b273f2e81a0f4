// Package opcomplete mechanizes the engine's cross-file operator
// invariant: every concrete algebra.Op type must be handled by every
// dispatch surface that claims completeness over the operator algebra.
//
// The invariant used to live in convention only: adding an operator meant
// touching the algebra types, the schema rule (which also builds the
// operator's iterator) and the cost model in lockstep — and forgetting one
// surface failed slowly, in a
// differential sweep, instead of fast, in lint. opcomplete makes the
// lockstep mechanical. (Plan walkers are not a surface: they go through
// Op.MapChildren, so an operator that cannot be walked does not compile.)
//
//   - The operator set is every concrete type of the package that owns
//     the Op interface (-oppkg, default nalquery/internal/algebra)
//     implementing it: read from the package's own scope when that
//     package is analyzed, from its export data in a package importing it.
//
//   - Any type switch over Op annotated with a marker comment
//
//     //nal:opswitch <surface>
//
//     on the line directly above the switch statement is checked for
//     completeness against that set. Missing cases are reported by
//     operator name; there are no exemptions. A comment that starts with
//     //nal:opswitch but is not exactly that marker is itself a finding,
//     so a malformed annotation cannot silently unmark a surface.
//
//   - The -require flag (pkg:surfaceA+surfaceB,pkg2:surfaceC) pins which
//     surfaces must exist in which packages, so deleting a marker comment
//     (or a whole dispatch function) is also a lint failure.
package opcomplete

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"nalquery/internal/analysis"
)

// Analyzer is the opcomplete analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "opcomplete",
	Doc:  "check that every concrete algebra.Op is handled by every annotated dispatch surface (//nal:opswitch)",
	Run:  run,
}

// opIfaceName is the operator interface type inside opPkg.
const opIfaceName = "Op"

var (
	opPkg   = "nalquery/internal/algebra"
	require = "nalquery/internal/algebra:schema," +
		"nalquery/internal/cost:cost"
)

func init() {
	Analyzer.Flags.StringVar(&opPkg, "oppkg", opPkg,
		"import path of the package that declares the Op interface")
	Analyzer.Flags.StringVar(&require, "require", require,
		"required surfaces per package, as pkg:surfaceA+surfaceB,pkg2:surfaceC")
}

// markerPrefix starts every opswitch annotation; markerRe is the one form
// it may take.
const markerPrefix = "//nal:opswitch"

var markerRe = regexp.MustCompile(`^//nal:opswitch ([A-Za-z0-9_.-]+)$`)

type marker struct {
	surface string
	used    bool
	pos     ast.Node
}

func run(pass *analysis.Pass) error {
	reqSurfaces := requiredSurfaces(pass.Pkg.Path())

	// Locate the Op-owning package: ourselves, or one of our imports.
	var opsPkg *types.Package
	if pass.Pkg.Path() == opPkg {
		opsPkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == opPkg {
				opsPkg = imp
				break
			}
		}
	}
	if opsPkg == nil {
		// A package that must host dispatch surfaces necessarily imports
		// the algebra; not importing it at all is already a finding.
		if len(reqSurfaces) > 0 && len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Pos(),
				"opcomplete: package %s must host op dispatch surfaces %v but does not import %s",
				pass.Pkg.Path(), reqSurfaces, opPkg)
		}
		return nil
	}

	ifaceObj := opsPkg.Scope().Lookup(opIfaceName)
	if ifaceObj == nil {
		return fmt.Errorf("interface %s not found in %s", opIfaceName, opPkg)
	}
	iface, ok := ifaceObj.Type().Underlying().(*types.Interface)
	if !ok {
		return fmt.Errorf("%s.%s is not an interface", opPkg, opIfaceName)
	}

	ops := concreteOps(pass.Fset, opsPkg, iface)

	markers := collectMarkers(pass)
	seen := map[string]bool{}

	pass.Preorder(func(n ast.Node, _ []ast.Node) {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return
		}
		pos := pass.Fset.Position(ts.Pos())
		m := markers[markerKey{pos.Filename, pos.Line - 1}]
		if m == nil {
			return
		}
		m.used = true
		if !isOpSwitch(pass, ts, ifaceObj) {
			pass.Reportf(ts.Pos(),
				"opcomplete: surface %q is annotated //nal:opswitch but does not switch on %s.%s",
				m.surface, opsPkg.Name(), opIfaceName)
			return
		}
		if seen[m.surface] {
			pass.Reportf(ts.Pos(), "opcomplete: duplicate op switch surface %q in package %s",
				m.surface, pass.Pkg.Path())
		}
		seen[m.surface] = true
		checkSwitch(pass, ts, m.surface, ops)
	})

	// Unused markers (annotation not directly above a type switch) are
	// invariants that silently stopped being enforced — report them.
	for _, m := range markers {
		if !m.used {
			pass.Reportf(m.pos.Pos(),
				"opcomplete: //nal:opswitch %s annotation is not attached to a type switch (it must sit on the line directly above one)",
				m.surface)
		}
	}

	for _, s := range reqSurfaces {
		if !seen[s] {
			pass.Reportf(pass.Files[0].Pos(),
				"opcomplete: package %s must contain an op dispatch surface %q (//nal:opswitch %s), but none was found",
				pass.Pkg.Path(), s, s)
		}
	}
	return nil
}

// concreteOps enumerates the non-test concrete named types of pkg that
// implement the operator interface. For an imported pkg the scope holds
// what its export data declares — the exported types, which are the only
// ones another package's switch could name.
func concreteOps(fset *token.FileSet, pkg *types.Package, iface *types.Interface) []string {
	var ops []string
	scope := pkg.Scope()
	for _, name := range scope.Names() { // sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		// Fixture operators declared in _test.go files are not part of
		// the algebra (export data of a test variant records positions too).
		if strings.HasSuffix(fset.Position(tn.Pos()).Filename, "_test.go") {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			ops = append(ops, name)
		}
	}
	return ops
}

type markerKey struct {
	file string
	line int
}

func collectMarkers(pass *analysis.Pass) map[markerKey]*marker {
	out := map[markerKey]*marker{}
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, markerPrefix) {
					continue
				}
				sub := markerRe.FindStringSubmatch(c.Text)
				if sub == nil {
					pass.Reportf(c.Pos(), "opcomplete: malformed annotation %q: the marker is exactly %s <surface>",
						c.Text, markerPrefix)
					continue
				}
				out[markerKey{fname, pass.Fset.Position(c.Pos()).Line}] = &marker{surface: sub[1], pos: c}
			}
		}
	}
	return out
}

// isOpSwitch reports whether the type switch's tag expression has the
// operator interface type.
func isOpSwitch(pass *analysis.Pass, ts *ast.TypeSwitchStmt, ifaceObj types.Object) bool {
	var x ast.Expr
	switch a := ts.Assign.(type) {
	case *ast.AssignStmt:
		if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return false
	}
	t := pass.TypesInfo.Types[x].Type
	return t != nil && types.Identical(t, ifaceObj.Type())
}

func checkSwitch(pass *analysis.Pass, ts *ast.TypeSwitchStmt, surface string, ops []string) {
	handled := map[string]bool{}
	for _, stmt := range ts.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, te := range cc.List {
			t := pass.TypesInfo.Types[te].Type
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == opPkg {
				handled[obj.Name()] = true
			}
		}
	}

	var missing []string
	for _, op := range ops {
		if !handled[op] {
			missing = append(missing, op)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(ts.Pos(),
			"opcomplete: op switch surface %q is missing cases for: %s",
			surface, strings.Join(missing, ", "))
	}
}

func requiredSurfaces(pkgPath string) []string {
	for _, ent := range strings.Split(require, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		i := strings.LastIndex(ent, ":")
		if i < 0 || ent[:i] != pkgPath {
			continue
		}
		return strings.Split(ent[i+1:], "+")
	}
	return nil
}
