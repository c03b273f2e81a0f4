package experiments

import (
	"strings"

	nalquery "nalquery"
	"nalquery/internal/algebra"
	"nalquery/internal/cli"
	"nalquery/internal/dom"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
	"nalquery/internal/xpath"
)

// The join/unordered benchmark family extends the -json perf trajectory
// beyond the paper's tables with the partitioned physical operators the
// paper's own measurements run on: the Grace hash join plus
// order-restoring sort (its stated implementation), the order-preserving
// hash join of Claussen et al. [6] (its intended implementation), and the
// unordered operator family admitted by XQuery's unordered() wrapper.
// These are exactly the plans whose per-tuple cost the slot engine must
// keep comparable across PRs.

// NamedPlan is one physical plan alternative of a benchmark workload.
type NamedPlan struct {
	Name string
	Op   algebra.Op
}

// JoinFamilyDocs builds the bids/items documents of the order-preserving
// join workload at one size.
func JoinFamilyDocs(size int) map[string]*dom.Document {
	cfg := xmlgen.DefaultConfig(size)
	return map[string]*dom.Document{
		"bids.xml":  xmlgen.Bids(cfg),
		"items.xml": xmlgen.Items(cfg),
	}
}

// joinFamilyInputs returns the bids and items scan subplans of the join
// workload (join bids with items on itemno).
func joinFamilyInputs() (bids, items algebra.Op) {
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

// JoinFamilyPlans returns the three physical strategies for the
// order-preserving join of the workload: the probe-order hash join this
// library defaults to, the paper's actual implementation (Grace hash join
// + sort restoring order), and the order-preserving hash join of Claussen
// et al. [6].
func JoinFamilyPlans() []NamedPlan {
	bids, items := joinFamilyInputs()
	direct := algebra.Join{L: bids, R: items,
		Pred: algebra.CmpExpr{L: algebra.Var{Name: "i1"}, R: algebra.Var{Name: "i2"}, Op: value.CmpEq}}
	grace := algebra.ProjectDrop{
		In: algebra.Sort{
			In: algebra.GraceJoin{
				L:      algebra.AttachSeq{In: bids, Attr: "#l"},
				R:      algebra.AttachSeq{In: items, Attr: "#r"},
				LAttrs: []string{"i1"}, RAttrs: []string{"i2"},
			},
			By: []string{"#l", "#r"},
		},
		Names: []string{"#l", "#r"},
	}
	claussen := algebra.OPHashJoin{L: bids, R: items,
		LAttrs: []string{"i1"}, RAttrs: []string{"i2"}}
	return []NamedPlan{
		{Name: "probe-order-hash", Op: direct},
		{Name: "grace+sort", Op: grace},
		{Name: "claussen-ophj", Op: claussen},
	}
}

// BenchTarget is one measured unit of the -json trajectory beyond the
// paper-table experiments.
type BenchTarget struct {
	Experiment string
	Plan       string
	Size       int
	Run        func() error
}

// JoinBenchTargets returns the join-family plans as benchmark targets,
// executed through the iterator engine exactly like a query plan.
func JoinBenchTargets(sizes []int) []BenchTarget {
	var out []BenchTarget
	for _, size := range sizes {
		docs := JoinFamilyDocs(size)
		for _, p := range JoinFamilyPlans() {
			op := p.Op
			out = append(out, BenchTarget{
				Experiment: "joins", Plan: p.Name, Size: size,
				Run: func() error {
					algebra.DrainIter(op, algebra.NewCtx(docs), nil)
					return nil
				},
			})
		}
	}
	return out
}

// UnorderedBenchTargets returns the unordered plan alternatives of the Q1
// grouping query wrapped in unordered() as benchmark targets.
func UnorderedBenchTargets(sizes []int) ([]BenchTarget, error) {
	var out []BenchTarget
	unorderedQ1 := "unordered(" + nalquery.QueryQ1Grouping + ")"
	for _, size := range sizes {
		eng := nalquery.NewEngine()
		eng.LoadUseCaseDocuments(size, 2)
		q, err := eng.Compile(unorderedQ1)
		if err != nil {
			return nil, err
		}
		for _, p := range q.Plans() {
			if !strings.HasPrefix(p.Name, "unordered ") {
				continue
			}
			name := p.Name
			query := q
			out = append(out, BenchTarget{
				Experiment: "unorderedq1", Plan: name, Size: size,
				Run: func() error {
					_, _, err := cli.RunPlan(query, name)
					return err
				},
			})
		}
	}
	return out, nil
}
