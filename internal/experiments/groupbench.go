package experiments

import (
	nalquery "nalquery"
	"nalquery/internal/algebra"
	"nalquery/internal/cli"
	"nalquery/internal/value"
)

// The grouping benchmark family pins the cost of the nested data model —
// the RowSeq group payloads that Γ builds and µ consumes — the way the
// joins family pins the partitioned operators. It measures the Γ→µ
// roundtrip (payload construction plus unnesting, the allocation profile
// of every grouping plan alternative), unary against binary grouping over
// the same workload, and the quantifier plan alternatives of the paper's
// existential/universal queries.

// GroupingFamilyPlans returns the algebraic grouping workloads over the
// bids/items documents: unary Γ (group bids by item), binary Γ (nest-join
// items with their bids), and the Γ→µ roundtrip that rebuilds the flat
// sequence from the groups.
func GroupingFamilyPlans() []NamedPlan {
	bids, items := joinFamilyInputs()
	unary := algebra.GroupUnary{In: bids, G: "g", By: []string{"i1"},
		Theta: value.CmpEq, F: algebra.SFIdent{}}
	binary := algebra.GroupBinary{L: items, R: bids, G: "g",
		LAttrs: []string{"i2"}, RAttrs: []string{"i1"},
		Theta: value.CmpEq, F: algebra.SFIdent{}}
	roundtrip := algebra.Unnest{In: unary, Attr: "g"}
	return []NamedPlan{
		{Name: "unary-gamma", Op: unary},
		{Name: "binary-gamma", Op: binary},
		{Name: "gamma-mu-roundtrip", Op: roundtrip},
	}
}

// GroupingBenchTargets returns the grouping family as benchmark targets:
// the algebraic Γ/µ workloads plus the quantifier plan alternatives of the
// existential (Q4) and universal (Q5) paper queries.
func GroupingBenchTargets(sizes []int) ([]BenchTarget, error) {
	var out []BenchTarget
	for _, size := range sizes {
		docs := JoinFamilyDocs(size)
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
		// The quantifier plans: the unnested alternatives the equivalences
		// derive from ∃/∀ (the nested baseline is covered — and capped — by
		// the per-query tables).
		for _, qp := range []struct{ query, plan, label string }{
			{nalquery.QueryQ4Exists, "semijoin", "quantifier-exists-semijoin"},
			{nalquery.QueryQ5Universal, "anti-semijoin", "quantifier-forall-antisemijoin"},
		} {
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
