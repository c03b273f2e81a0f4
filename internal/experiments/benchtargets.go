package experiments

import (
	nalquery "nalquery"
	"nalquery/internal/algebra"
	"nalquery/internal/cli"
	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
	"nalquery/internal/xpath"
)

// BenchTarget is one measured unit of the -json trajectory beyond the
// paper-table experiments.
type BenchTarget struct {
	Experiment string
	Plan       string
	Size       int
	Run        func() error
}

// The grouping benchmark family pins the cost of the nested data model —
// the RowSeq group payloads that Γ builds and µD consumes. It measures the
// Γ→µD roundtrip (payload construction plus unnesting, the allocation
// profile of every grouping plan alternative), unary against binary
// grouping over the same workload, and the quantifier plan alternatives of
// the paper's existential/universal queries.

// NamedPlan is one physical plan alternative of a benchmark workload.
type NamedPlan struct {
	Name string
	Op   algebra.Op
}

// bidsItemsDocs builds the bids/items documents of the grouping workload
// at one size.
func bidsItemsDocs(size int) map[string]*dom.Document {
	cfg := xmlgen.DefaultConfig(size)
	return map[string]*dom.Document{
		"bids.xml":  xmlgen.Bids(cfg),
		"items.xml": xmlgen.Items(cfg),
	}
}

// bidsItemsScans returns the bids and items scan subplans of the grouping
// workload, each binding its itemno (i1, i2).
func bidsItemsScans() (bids, items algebra.Op) {
	bids = algebra.Map{
		In: algebra.UnnestMap{
			In:   algebra.Map{In: algebra.Singleton{}, Attr: "d1", E: algebra.Doc{URI: "bids.xml"}},
			Attr: "b",
			E:    algebra.PathOf{Input: algebra.Var{Name: "d1"}, Path: xpath.MustParse("//bidtuple")},
		},
		Attr: "i1",
		E:    algebra.PathOf{Input: algebra.Var{Name: "b"}, Path: xpath.MustParse("itemno")},
	}
	items = algebra.Map{
		In: algebra.UnnestMap{
			In:   algebra.Map{In: algebra.Singleton{}, Attr: "d2", E: algebra.Doc{URI: "items.xml"}},
			Attr: "it",
			E:    algebra.PathOf{Input: algebra.Var{Name: "d2"}, Path: xpath.MustParse("//itemtuple")},
		},
		Attr: "i2",
		E:    algebra.PathOf{Input: algebra.Var{Name: "it"}, Path: xpath.MustParse("itemno")},
	}
	return bids, items
}

// GroupingFamilyPlans returns the algebraic grouping workloads over the
// bids/items documents: unary Γ (group bids by item), binary Γ (nest-join
// items with their bids), and the Γ→µD roundtrip that rebuilds the flat
// sequence from the groups.
func GroupingFamilyPlans() []NamedPlan {
	bids, items := bidsItemsScans()
	unary := algebra.GroupUnary{In: bids, G: "g", By: []string{"i1"},
		Theta: value.CmpEq, F: algebra.SFIdent{}}
	binary := algebra.GroupBinary{L: items, R: bids, G: "g",
		LAttrs: []string{"i2"}, RAttrs: []string{"i1"},
		Theta: value.CmpEq, F: algebra.SFIdent{}}
	roundtrip := algebra.UnnestDistinct{In: unary, Attr: "g"}
	return []NamedPlan{
		{Name: "unary-gamma", Op: unary},
		{Name: "binary-gamma", Op: binary},
		{Name: "gamma-muD-roundtrip", Op: roundtrip},
	}
}

// quantifierPlans are the quantifier plans of the grouping family: the
// unnested alternatives the equivalences derive from ∃/∀ (the nested
// baseline is covered — and capped — by the per-query tables).
var quantifierPlans = []struct{ query, plan, label string }{
	{nalquery.QueryQ4Exists, "semijoin", "quantifier-exists-semijoin"},
	{nalquery.QueryQ5Universal, "anti-semijoin", "quantifier-forall-antisemijoin"},
}

// GroupingPlanNames lists the plans the grouping family measures.
func GroupingPlanNames() []string {
	var out []string
	for _, p := range GroupingFamilyPlans() {
		out = append(out, p.Name)
	}
	for _, qp := range quantifierPlans {
		out = append(out, qp.label)
	}
	return out
}

// GroupingBenchTargets returns the grouping family as benchmark targets:
// the algebraic Γ/µD workloads plus the quantifier plan alternatives of the
// existential (Q4) and universal (Q5) paper queries.
func GroupingBenchTargets(sizes []int) ([]BenchTarget, error) {
	var out []BenchTarget
	for _, size := range sizes {
		docs := bidsItemsDocs(size)
		for _, p := range GroupingFamilyPlans() {
			op := p.Op
			out = append(out, BenchTarget{
				Experiment: "grouping", Plan: p.Name, Size: size,
				Run: func() error {
					algebra.DrainIter(op, algebra.NewCtx(docs), nil)
					return nil
				},
			})
		}
		for _, qp := range quantifierPlans {
			eng := nalquery.NewEngine()
			eng.LoadUseCaseDocuments(size, 2)
			q, err := eng.Compile(qp.query)
			if err != nil {
				return nil, err
			}
			query, plan := q, qp.plan
			out = append(out, BenchTarget{
				Experiment: "grouping", Plan: qp.label, Size: size,
				Run: func() error {
					_, _, err := cli.RunPlan(query, plan)
					return err
				},
			})
		}
	}
	return out, nil
}
