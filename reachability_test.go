package nalquery

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strings"
	"testing"

	"nalquery/internal/algebra"
)

// TestEveryNativeOperatorIsReachable: the operators of the compiled plans of
// a fixed census — the paper queries and three statements for what they do
// not reach — nested plans included, are exactly the cases of the schema
// surface (the rule that types an operator and builds its iterator). An
// operator only tests can build fails here, and so does a plan shape the
// engine would have to refuse.
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
	)

	found := map[string]bool{}
	var op func(algebra.Op)
	var expr func(algebra.Expr)
	fn := func(f algebra.SeqFunc) {
		for w, ok := f.(algebra.SFFiltered); ok; w, ok = w.Inner.(algebra.SFFiltered) {
			expr(w.Pred)
		}
	}
	expr = func(e algebra.Expr) {
		switch w := e.(type) {
		case nil:
			return
		case algebra.NestedApply:
			op(w.Plan)
			fn(w.F)
		case algebra.ExistsQ:
			op(w.Range)
		case algebra.ForallQ:
			op(w.Range)
		case algebra.AggOfAttr:
			fn(w.F)
		}
		for i := 0; e.Child(i) != nil; i++ {
			expr(e.Child(i))
		}
	}
	op = func(o algebra.Op) {
		found[strings.TrimPrefix(fmt.Sprintf("%T", o), "algebra.")] = true
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

	dispatched := schemaSurfaceCases(t)
	var missing, extra []string
	for _, name := range dispatched {
		if !found[name] {
			missing = append(missing, name)
		}
	}
	for name := range found {
		if !slices.Contains(dispatched, name) {
			extra = append(extra, name)
		}
	}
	slices.Sort(extra)
	if len(missing) > 0 {
		t.Errorf("operators with a schema rule that no plan of the census contains: %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("operators in compiled plans without a schema rule: %v", extra)
	}
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
			if strings.HasPrefix(c.Text, "//nal:opswitch schema") {
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
