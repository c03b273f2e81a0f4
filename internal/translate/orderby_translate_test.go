package translate

import (
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/xquery"
)

// Translation-shape tests for the frontend extensions: order by becomes
// Π̄(Sort(χ…)), positional for-bindings become Υ with a PosAttr, and
// conditionals become CondExpr.

func translateQ(t *testing.T, q string) algebra.Op {
	t.Helper()
	ast, err := xquery.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TranslateParams(normalize.NormalizeWithCatalog(ast, schema.UseCases()), schema.UseCases(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

func findOp(root algebra.Op, pred func(algebra.Op) bool) algebra.Op {
	var found algebra.Op
	var walk func(o algebra.Op)
	walk = func(o algebra.Op) {
		if found != nil {
			return
		}
		if pred(o) {
			found = o
			return
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(root)
	return found
}

// TestOrderByTranslation: order by produces a stable Sort over χ-bound key
// attributes, dropped afterwards.
func TestOrderByTranslation(t *testing.T) {
	plan := translateQ(t, `
let $d := doc("prices.xml")
for $b in $d//book
order by decimal($b/price) descending, string($b/title)
return $b/title`)
	sortOp := findOp(plan, func(o algebra.Op) bool { _, ok := o.(algebra.Sort); return ok })
	if sortOp == nil {
		t.Fatalf("no Sort operator in plan:\n%s", algebra.Explain(plan))
	}
	s := sortOp.(algebra.Sort)
	if len(s.By) != 2 || len(s.Dirs) != 2 {
		t.Fatalf("Sort keys/dirs: %v %v, want 2 each", s.By, s.Dirs)
	}
	if !s.Dirs[0] || s.Dirs[1] {
		t.Errorf("Dirs = %v, want [descending, ascending]", s.Dirs)
	}
	drop := findOp(plan, func(o algebra.Op) bool {
		d, ok := o.(algebra.ProjectDrop)
		return ok && len(d.Names) == 2
	})
	if drop == nil {
		t.Errorf("sort-key attributes not dropped after the Sort")
	}
	// The sort keys must be bound by χ operators below the Sort.
	maps := 0
	var count func(o algebra.Op)
	count = func(o algebra.Op) {
		if m, ok := o.(algebra.Map); ok {
			for _, k := range s.By {
				if m.Attr == k {
					maps++
				}
			}
		}
		for _, c := range o.Children() {
			count(c)
		}
	}
	count(plan)
	if maps != 2 {
		t.Errorf("found %d χ-bound sort keys, want 2", maps)
	}
}

// TestPositionalForTranslation: "at $i" sets Υ's PosAttr.
func TestPositionalForTranslation(t *testing.T) {
	plan := translateQ(t, `
let $d := doc("bib.xml")
for $b at $i in $d//book
return $b/title`)
	um := findOp(plan, func(o algebra.Op) bool {
		u, ok := o.(algebra.UnnestMap)
		return ok && u.PosAttr != ""
	})
	if um == nil {
		t.Fatalf("no Υ with PosAttr in plan:\n%s", algebra.Explain(plan))
	}
	if um.(algebra.UnnestMap).PosAttr != "i" {
		t.Errorf("PosAttr = %q, want \"i\"", um.(algebra.UnnestMap).PosAttr)
	}
}

// TestConditionalTranslation: if/then/else becomes CondExpr inside the
// selection predicate.
func TestConditionalTranslation(t *testing.T) {
	plan := translateQ(t, `
let $d := doc("bib.xml")
for $b in $d//book
where if ($b/@year > 2000) then true() else false()
return $b/title`)
	sel := findOp(plan, func(o algebra.Op) bool {
		s, ok := o.(algebra.Select)
		if !ok {
			return false
		}
		_, isCond := s.Pred.(algebra.CondExpr)
		return isCond
	})
	if sel == nil {
		t.Fatalf("no σ with CondExpr predicate in plan:\n%s", algebra.Explain(plan))
	}
}
