package experiments

import (
	nalquery "nalquery"
	"nalquery/internal/cli"
)

// BenchTarget is one measured unit of the -json trajectory beyond the
// paper-table experiments.
type BenchTarget struct {
	Experiment string
	Plan       string
	Size       int
	Run        func() error
}

// quantifierPlans are the plans of the grouping family: the unnested
// alternatives the equivalences derive from ∃/∀ (Eqvs. 6 and 7) for the
// paper's existential (Q4) and universal (Q5) queries. The nested baseline
// is covered — and capped — by the per-query tables.
var quantifierPlans = []struct{ query, plan, label string }{
	{nalquery.QueryQ4Exists, "semijoin", "quantifier-exists-semijoin"},
	{nalquery.QueryQ5Universal, "anti-semijoin", "quantifier-forall-antisemijoin"},
}

// GroupingPlanNames lists the plans the grouping family measures.
func GroupingPlanNames() []string {
	var out []string
	for _, qp := range quantifierPlans {
		out = append(out, qp.label)
	}
	return out
}

// GroupingBenchTargets returns the grouping family as benchmark targets: the
// quantifier plan alternatives of the existential (Q4) and universal (Q5)
// paper queries.
func GroupingBenchTargets(sizes []int) ([]BenchTarget, error) {
	var out []BenchTarget
	for _, size := range sizes {
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
