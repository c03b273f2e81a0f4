package cost

import (
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/value"
	"nalquery/internal/xpath"
)

// Per-operator estimation tests: every operator kind yields positive,
// monotone estimates.

func scanOp(uri, path, attr string) algebra.Op {
	return algebra.UnnestMap{
		In:   algebra.Map{In: algebra.Singleton{}, Attr: "d" + attr, E: algebra.Doc{URI: uri}},
		Attr: attr,
		E:    algebra.PathOf{Input: algebra.Var{Name: "d" + attr}, Path: xpath.MustParse(path)},
	}
}

func TestEveryOperatorEstimated(t *testing.T) {
	m, _ := modelFor(t, 100)
	e1 := scanOp("bib.xml", "//book", "b")
	e2 := scanOp("bib.xml", "//author", "a")
	eq := algebra.CmpExpr{L: algebra.Var{Name: "b"}, R: algebra.Var{Name: "a"}, Op: value.CmpEq}
	ops := []algebra.Op{
		algebra.Singleton{},
		algebra.Select{In: e1, Pred: eq},
		algebra.Project{In: e1, Names: []string{"b"}},
		algebra.ProjectDrop{In: e1, Names: []string{"b"}},
		algebra.ProjectRename{In: e1, Pairs: []algebra.Rename{{New: "x", Old: "b"}}},
		algebra.ProjectDistinct{In: e1, Pairs: []algebra.Rename{{New: "x", Old: "b"}}},
		algebra.Map{In: e1, Attr: "x", E: algebra.ConstVal{V: value.Int(1)}},
		algebra.SemiJoin{L: e1, R: e2, Pred: eq},
		algebra.AntiJoin{L: e1, R: e2, Pred: eq},
		algebra.OuterJoin{L: e1, R: e2, Pred: eq, G: "g", Default: algebra.SFCount{}},
		algebra.GroupUnary{In: e2, G: "g", By: []string{"a"}, Theta: value.CmpEq, F: algebra.SFCount{}},
		algebra.GroupUnary{In: e2, G: "g", By: []string{"a"}, Theta: value.CmpLt, F: algebra.SFCount{}},
		algebra.GroupBinary{L: e1, R: e2, G: "g", LAttrs: []string{"b"}, RAttrs: []string{"a"},
			Theta: value.CmpEq, F: algebra.SFCount{}},
		algebra.Unnest{In: e1, Attr: "g"},
		algebra.UnnestDistinct{In: e1, Attr: "g"},
		algebra.XiSimple{In: e1, Cmds: []algebra.Command{algebra.LitCmd("x")}},
		algebra.XiGroup{In: e1, By: []string{"b"}},
		algebra.Sort{In: e1, By: []string{"b"}},
	}
	for _, op := range ops {
		est := m.Plan(op)
		if est.Cost <= 0 || est.Card <= 0 {
			t.Errorf("%T: non-positive estimate %+v", op, est)
		}
	}
}

func TestExprCosts(t *testing.T) {
	m, _ := modelFor(t, 100)
	inner := scanOp("bib.xml", "//book", "b")
	exprs := []algebra.Expr{
		algebra.Var{Name: "x"},
		algebra.ConstVal{V: value.Int(1)},
		algebra.Doc{URI: "bib.xml"},
		algebra.PathOf{Input: algebra.Var{Name: "x"}, Path: xpath.MustParse("title")},
		algebra.CmpExpr{L: algebra.Var{Name: "x"}, R: algebra.Var{Name: "y"}, Op: value.CmpEq},
		algebra.InExpr{Item: algebra.Var{Name: "x"}, Seq: algebra.Var{Name: "y"}},
		algebra.AndExpr{L: algebra.Var{Name: "x"}, R: algebra.Var{Name: "y"}},
		algebra.OrExpr{L: algebra.Var{Name: "x"}, R: algebra.Var{Name: "y"}},
		algebra.NotExpr{E: algebra.Var{Name: "x"}},
		algebra.Call{Fn: "count", Args: []algebra.Expr{algebra.Var{Name: "x"}}},
		algebra.AggOfAttr{F: algebra.SFCount{}, Attr: algebra.Var{Name: "g"}},
		algebra.BindTuples{E: algebra.Var{Name: "x"}, Attr: "a'"},
		algebra.ArithExpr{L: algebra.Var{Name: "x"}, R: algebra.Var{Name: "y"}, Op: '+'},
		algebra.NestedApply{F: algebra.SFCount{}, Plan: inner},
		algebra.ExistsQ{Var: "v", RangeAttr: "b", Range: inner, Pred: algebra.ConstVal{V: value.Bool(true)}},
		algebra.ForallQ{Var: "v", RangeAttr: "b", Range: inner, Pred: algebra.ConstVal{V: value.Bool(true)}},
	}
	for _, e := range exprs {
		if c := m.expr(e); c <= 0 {
			t.Errorf("%T: non-positive expression cost %g", e, c)
		}
	}
	if m.expr(nil) != 0 {
		t.Errorf("nil expression must cost 0")
	}
	// Nested expressions dominate scalar ones.
	nested := m.expr(algebra.NestedApply{F: algebra.SFCount{}, Plan: inner})
	scalar := m.expr(algebra.CmpExpr{L: algebra.Var{Name: "x"}, R: algebra.Var{Name: "y"}, Op: value.CmpEq})
	if nested < scalar*100 {
		t.Errorf("nested expression cost %g must dominate scalar %g", nested, scalar)
	}
}

func TestPathCardFallbacks(t *testing.T) {
	m, _ := modelFor(t, 100)
	// Unknown element name: no measured path reaches it.
	card := m.pathCard(algebra.PathOf{Input: algebra.Var{Name: "d"},
		Path: xpath.MustParse("//unknown-elem")}, 10)
	if card <= 0 {
		t.Fatalf("unknown element cardinality %g", card)
	}
	// Non-path expressions scale with the input.
	card2 := m.pathCard(algebra.Var{Name: "x"}, 10)
	if card2 < 10 {
		t.Fatalf("non-path fanout %g", card2)
	}
	// distinct-values halves the estimate.
	full := m.pathCard(algebra.PathOf{Input: algebra.Var{Name: "d"}, Path: xpath.MustParse("//author")}, 1)
	dist := m.pathCard(algebra.Call{Fn: "distinct-values", Args: []algebra.Expr{
		algebra.PathOf{Input: algebra.Var{Name: "d"}, Path: xpath.MustParse("//author")}}}, 1)
	if dist >= full {
		t.Fatalf("distinct estimate %g must shrink from %g", dist, full)
	}
}
