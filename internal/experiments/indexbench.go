package experiments

import (
	"fmt"
	"strings"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

// The index benchmark family pins the payoff of the statistics/index
// subsystem on the selective workload it exists for: one bib.xml year out
// of many. Three trajectories per size — the full-scan base plan, the
// index-substituted alternative (a value-index probe), and the automatic
// choice (which the measured cost model must land on the index plan; the
// -diff gate catches both a slowed probe and an automatic choice drifting
// back onto the scan's allocation profile).

// IndexQuerySelective is the selective scan the value index answers with a
// probe: books of a single year.
const IndexQuerySelective = `
let $d := doc("bib.xml")
for $b in $d//book
where $b/@year = 1999
return $b/title`

// IndexBenchTargets measures the full-scan, index-scan, and auto-chosen
// plans of the selective query at each size.
func IndexBenchTargets(sizes []int) ([]BenchTarget, error) {
	var out []BenchTarget
	for _, size := range sizes {
		eng := nalquery.NewEngine()
		eng.LoadUseCaseDocuments(size, 2)
		q, err := eng.Compile(IndexQuerySelective)
		if err != nil {
			return nil, err
		}
		indexed := ""
		for _, p := range q.Plans() {
			if strings.HasPrefix(p.Name, "indexed ") {
				indexed = p.Name
				break
			}
		}
		if indexed == "" {
			return nil, fmt.Errorf("index: no indexed plan alternative for the selective query")
		}
		base := strings.TrimPrefix(indexed, "indexed ")
		exec := func(plan string) func() error {
			return func() error {
				_, _, err := cli.RunPlan(q, plan)
				return err
			}
		}
		out = append(out,
			BenchTarget{Experiment: "index", Plan: "full-scan", Size: size, Run: exec(base)},
			BenchTarget{Experiment: "index", Plan: "index-scan", Size: size, Run: exec(indexed)},
			BenchTarget{Experiment: "index", Plan: "auto", Size: size, Run: exec("")},
		)
	}
	return out, nil
}
