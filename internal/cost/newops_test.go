package cost

import (
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
)

// newOpsModel builds a model over real generated documents, so scan
// cardinalities are large enough to separate linear from quadratic costs.
func newOpsModel() *Model {
	cfg := xmlgen.DefaultConfig(500)
	return measuredModel(map[string]*dom.Document{
		"bib.xml":   xmlgen.Bib(cfg),
		"bids.xml":  xmlgen.Bids(cfg),
		"items.xml": xmlgen.Items(cfg),
	})
}

// TestNewOpsEstimated: the hash-family operators get finite, child-aware
// estimates that cost less than the quadratic nested evaluation they replace.
func TestNewOpsEstimated(t *testing.T) {
	m := newOpsModel()
	eq := algebra.CmpExpr{L: algebra.Var{Name: "A1"}, R: algebra.Var{Name: "A2"}, Op: value.CmpEq}
	nested := m.Plan(algebra.Map{In: scanOp("bib.xml", "//book", "x"), Attr: "g", E: algebra.NestedApply{
		F: algebra.SFCount{}, Plan: algebra.Select{In: scanOp("bib.xml", "//book", "x"), Pred: eq}}})
	ops := []algebra.Op{
		algebra.OuterJoin{L: scanOp("bib.xml", "//book", "x"), R: scanOp("bib.xml", "//book", "x"), Pred: eq,
			G: "x", Default: algebra.SFCount{}},
		algebra.SemiJoin{L: scanOp("bib.xml", "//book", "x"), R: scanOp("bib.xml", "//book", "x"), Pred: eq},
		algebra.GroupUnary{In: scanOp("bib.xml", "//book", "x"), G: "g",
			By: []string{"x"}, Theta: value.CmpEq, F: algebra.SFCount{}},
	}
	for _, op := range ops {
		est := m.Plan(op)
		if est.Cost <= 0 || est.Card <= 0 {
			t.Errorf("%s: degenerate estimate %+v", op.String(), est)
		}
		if est.Cost >= nested.Cost {
			t.Errorf("%s: hash-family cost %v not below the nested plan's %v", op.String(), est.Cost, nested.Cost)
		}
	}
}
