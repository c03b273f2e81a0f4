package algebra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"sort"
	"strings"
	"testing"
)

// definitionalOnly are the Sec. 2 operators the engine keeps although no
// compiled plan holds them: the paper's algebra defines them and the
// equivalence property tests of internal/core run on them.
var definitionalOnly = map[string]bool{
	// ΠD A′:A appears in the equivalences' side conditions (e1 = ΠD(…)),
	// which the rewriter decides from schema facts without building it.
	"ProjectDistinct": true,
	// µ: the plans the rewriter derives unnest with µD only.
	"Unnest": true,
}

// TestEveryNativeOperatorIsReachable: an operator with a case in the
// //nal:opswitch schema surface — the rule that types it and builds its
// iterator — is constructed somewhere in the non-test code of the translator
// or the rewriter, so a query can reach it; and the surface's exempt= list,
// the operators without a rule, is exactly definitionalOnly. An operator
// only tests and benchmarks can build fails here.
func TestEveryNativeOperatorIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "schema.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var markerLine int
	exempt := map[string]bool{}
	for _, cg := range src.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//nal:opswitch schema")
			if !ok {
				continue
			}
			markerLine = fset.Position(c.Pos()).Line
			if list, ok := strings.CutPrefix(strings.TrimSpace(rest), "exempt="); ok {
				for _, name := range strings.Split(list, ",") {
					exempt[name] = true
				}
			}
		}
	}
	var dispatched []string
	ast.Inspect(src, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok || fset.Position(sw.Pos()).Line != markerLine+1 {
			return true
		}
		for _, cc := range sw.Body.List {
			for _, e := range cc.(*ast.CaseClause).List {
				dispatched = append(dispatched, e.(*ast.Ident).Name)
			}
		}
		return false
	})
	if len(dispatched) == 0 {
		t.Fatal("no //nal:opswitch schema type switch found in schema.go")
	}
	if !maps.Equal(exempt, definitionalOnly) {
		t.Errorf("the schema surface exempts %v; the definitional-only operators are %v", exempt, definitionalOnly)
	}

	produced := map[string]bool{}
	for _, dir := range []string{"../translate", "../core"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "algebra" {
							produced[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	var unreachable, stale []string
	for _, op := range dispatched {
		if !produced[op] {
			unreachable = append(unreachable, op)
		}
	}
	for op := range definitionalOnly {
		if produced[op] {
			stale = append(stale, op)
		}
	}
	sort.Strings(unreachable)
	sort.Strings(stale)
	if len(unreachable) > 0 {
		t.Errorf("operators with a schema rule that neither internal/translate nor internal/core constructs: %v", unreachable)
	}
	if len(stale) > 0 {
		t.Errorf("definitionalOnly lists operators the compiler constructs: %v", stale)
	}
}
