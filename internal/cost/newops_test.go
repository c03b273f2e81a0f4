package cost

import (
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// constLeaf is a schema-known leaf for cost estimation.
type constLeaf struct{ attrs []string }

func (c constLeaf) Eval(*algebra.Ctx, value.Tuple) value.TupleSeq      { return nil }
func (c constLeaf) String() string                                     { return "leaf" }
func (c constLeaf) Children() []algebra.Op                             { return nil }
func (c constLeaf) MapChildren(func(algebra.Op) algebra.Op) algebra.Op { return c }
func (c constLeaf) Exprs() []algebra.Expr                              { return nil }
func (c constLeaf) Attrs() ([]string, bool)                            { return c.attrs, true }

// newOpsModel builds a model over real generated documents, so scan
// cardinalities are large enough to separate linear from quadratic costs.
func newOpsModel() *Model {
	cfg := xmlgen.DefaultConfig(500)
	return NewModel(map[string]*dom.Document{
		"bib.xml":   xmlgen.Bib(cfg),
		"bids.xml":  xmlgen.Bids(cfg),
		"items.xml": xmlgen.Items(cfg),
	})
}

// TestNewOpsEstimated: the physical variants get finite, child-aware
// estimates, and hash-family joins cost less than the quadratic
// cross-product they replace.
func TestNewOpsEstimated(t *testing.T) {
	m := newOpsModel()
	l := constLeaf{attrs: []string{"A1"}}
	r := constLeaf{attrs: []string{"A2"}}
	eq := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
	cross := m.Plan(algebra.Select{In: algebra.Cross{L: scanOp("bib.xml", "//book", "x"), R: scanOp("bib.xml", "//book", "x")}, Pred: eq})
	ops := []algebra.Op{
		algebra.UnorderedJoin{L: scanOp("bib.xml", "//book", "x"), R: scanOp("bib.xml", "//book", "x"),
			LAttrs: []string{"A1"}, RAttrs: []string{"A2"}},
		algebra.UnorderedSemiJoin{L: scanOp("bib.xml", "//book", "x"), R: scanOp("bib.xml", "//book", "x"),
			LAttrs: []string{"A1"}, RAttrs: []string{"A2"}},
		algebra.UnorderedGroupUnary{In: scanOp("bib.xml", "//book", "x"), G: "g",
			By: []string{"x"}, Theta: value.CmpEq, F: algebra.SFCount{}},
	}
	for _, op := range ops {
		est := m.Plan(op)
		if est.Cost <= 0 || est.Card <= 0 {
			t.Errorf("%s: degenerate estimate %+v", op.String(), est)
		}
		if est.Cost >= cross.Cost {
			t.Errorf("%s: hash-family cost %v not below σ(×) cost %v", op.String(), est.Cost, cross.Cost)
		}
	}
	_ = l
	_ = r
}

// TestUnorderedCostMatchesOrdered: the unordered variants are estimated at
// most as expensive as their ordered counterparts (they skip order
// bookkeeping), so a cost-based choice under unordered() never prefers the
// ordered operator for cost reasons.
func TestUnorderedCostMatchesOrdered(t *testing.T) {
	m := newOpsModel()
	lScan := scanOp("bids.xml", "//bidtuple", "x")
	rScan := scanOp("items.xml", "//itemtuple", "x")
	eq := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
	ordered := m.Plan(algebra.Join{L: lScan, R: rScan, Pred: eq})
	unordered := m.Plan(algebra.UnorderedJoin{L: lScan, R: rScan,
		LAttrs: []string{"A1"}, RAttrs: []string{"A2"}})
	if unordered.Cost > ordered.Cost {
		t.Errorf("unordered join costed above ordered join: %v > %v", unordered.Cost, ordered.Cost)
	}
	gOrd := m.Plan(algebra.GroupUnary{In: lScan, G: "g", By: []string{"x"},
		Theta: value.CmpEq, F: algebra.SFCount{}})
	gUn := m.Plan(algebra.UnorderedGroupUnary{In: lScan, G: "g", By: []string{"x"},
		Theta: value.CmpEq, F: algebra.SFCount{}})
	if gUn.Cost > gOrd.Cost {
		t.Errorf("unordered grouping costed above ordered grouping: %v > %v", gUn.Cost, gOrd.Cost)
	}
}
