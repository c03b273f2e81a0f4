package nalquery

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"slices"
	"strings"
	"testing"

	"nalquery/internal/algebra"
)

// TestEveryNativeOperatorIsReachable: the operators of the compiled plans of
// a fixed census — the paper queries and four statements for what they do
// not reach — nested plans included, are exactly the cases of the schema
// surface (the rule that types an operator and builds its iterator), the
// expression forms in their subscripts are exactly the forms internal/algebra
// declares, and the sequence functions they apply (the f of a nested block,
// Γ, Γ-self and binary Γ, ⟕'s default, and the f of an f ∘ σp) are exactly
// the functions internal/algebra declares. An operator, a form or a function
// only tests can build fails here, and so does a plan shape the engine would
// have to refuse.
func TestEveryNativeOperatorIsReachable(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(100, 2)
	eng.LoadDBLPDocument(100)
	texts := slices.Sorted(maps.Values(PaperQueries))
	texts = append(texts,
		// binary Γ: a θ-correlated count.
		`for $p in doc("bib.xml")//book/price
			return <n>{ count(for $a in doc("bib.xml")//a where $a < $p return $a) }</n>`,
		// ΠA′:A: the grouping plan of a self-correlated distinct-values pair.
		`let $d1 := doc("bib.xml") for $a1 in distinct-values($d1//author) return <a>{ let $d2 := doc("bib.xml") for $a2 in distinct-values($d2//author) where $a1 = $a2 return $a2 }</a>`,
		// Sort.
		`for $b in doc("bib.xml")//book order by $b/title return $b/title`,
		// The parameter, disjunction, conditional and arithmetic forms.
		`declare variable $y external; for $b in doc("bib.xml")//book where $b/@year > $y or $b/price < 10 return <r>{ if ($b/price > 20) then $b/price * 2 else $b/title }</r>`,
	)

	ops, forms, funcs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	name := func(v any) string { return strings.TrimPrefix(fmt.Sprintf("%T", v), "algebra.") }
	var op func(algebra.Op)
	var expr func(algebra.Expr)
	var fn func(algebra.SeqFunc)
	fn = func(f algebra.SeqFunc) {
		funcs[name(f)] = true
		if w, ok := f.(algebra.SFFiltered); ok {
			expr(w.Pred)
			fn(w.Inner)
		}
	}
	expr = func(e algebra.Expr) {
		if e == nil {
			return
		}
		forms[name(e)] = true
		switch w := e.(type) {
		case algebra.NestedApply:
			op(w.Plan)
			fn(w.F)
		case algebra.ExistsQ:
			op(w.Range)
		case algebra.ForallQ:
			op(w.Range)
		}
		for i := 0; e.Child(i) != nil; i++ {
			expr(e.Child(i))
		}
	}
	op = func(o algebra.Op) {
		ops[name(o)] = true
		switch w := o.(type) {
		case algebra.GroupUnary:
			fn(w.F)
		case algebra.GroupSelf:
			fn(w.F)
		case algebra.GroupBinary:
			fn(w.F)
		case algebra.OuterJoin:
			fn(w.Default)
		}
		for _, e := range o.Exprs() {
			expr(e)
		}
		for _, c := range o.Children() {
			op(c)
		}
	}
	for _, text := range texts {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, p := range q.Plans() {
			op(p.op)
		}
	}

	for _, c := range []struct {
		what, where string
		declared    []string
		found       map[string]bool
	}{
		{"operators", "a schema rule", schemaSurfaceCases(t), ops},
		{"expression forms", "a declaration in internal/algebra", algebraReceivers(t, "Child"), forms},
		{"sequence functions", "a declaration in internal/algebra", algebraReceivers(t, "Apply"), funcs},
	} {
		var missing, extra []string
		for _, n := range c.declared {
			if !c.found[n] {
				missing = append(missing, n)
			}
		}
		for n := range c.found {
			if !slices.Contains(c.declared, n) {
				extra = append(extra, n)
			}
		}
		slices.Sort(extra)
		if len(missing) > 0 {
			t.Errorf("%s with %s that no plan of the census contains: %v", c.what, c.where, missing)
		}
		if len(extra) > 0 {
			t.Errorf("%s in compiled plans without %s: %v", c.what, c.where, extra)
		}
	}
}

// algebraReceivers lists the receivers of internal/algebra's non-test
// methods called method: the expression forms for Child, the sequence
// functions for Apply.
func algebraReceivers(t *testing.T, method string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/algebra", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == method {
					names = append(names, fd.Recv.List[0].Type.(*ast.Ident).Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s methods found in internal/algebra", method)
	}
	slices.Sort(names)
	return names
}

// schemaSurfaceCases reads the case list of the //nal:opswitch schema type
// switch in internal/algebra/schema.go.
func schemaSurfaceCases(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "internal/algebra/schema.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var markerLine int
	for _, cg := range src.Comments {
		for _, c := range cg.List {
			if c.Text == "//nal:opswitch schema" {
				markerLine = fset.Position(c.Pos()).Line
			}
		}
	}
	var cases []string
	ast.Inspect(src, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok || fset.Position(sw.Pos()).Line != markerLine+1 {
			return true
		}
		for _, cc := range sw.Body.List {
			for _, e := range cc.(*ast.CaseClause).List {
				cases = append(cases, e.(*ast.Ident).Name)
			}
		}
		return false
	})
	if len(cases) == 0 {
		t.Fatal("no //nal:opswitch schema type switch found in internal/algebra/schema.go")
	}
	return cases
}
