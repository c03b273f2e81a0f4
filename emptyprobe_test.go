package nalquery

import (
	"slices"
	"strings"
	"testing"
)

// TestDifferentialEmptyProbeSide runs statements whose unnested plans probe
// with an empty left input — no title, book or bid matches "zzz" — a ⋉ or ⟕
// whose right input is not empty, through every plan, both evaluators and
// both consumption modes, and requires the same bytes and the same counted
// work (assertAllPlansAgree). The reference evaluator returns before it
// evaluates a right input when the left one is empty; the row engine used to
// drain its build sides when they opened, and counted one more document
// access and the right input's tuples (at this size, on the semijoin, outer
// join and indexed outer join plans: 2 accesses and 100 tuples against 1 and
// 50). It builds them on the first left row now.
func TestDifferentialEmptyProbeSide(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 2)
	for _, c := range []struct {
		name, query string
		alt         string // the plan that probes the empty side
	}{
		{"∃ over no title", `let $d1 := document("bib.xml")
			for $t1 in $d1//book/title
			where ($t1 = "zzz") and (some $t2 in (let $d3 := document("reviews.xml")
				for $t3 in $d3//entry/title return $t3) satisfies $t1 = $t2)
			return <r>{ $t1 }</r>`, "semijoin"},
		{"Q1 over no author", strings.Replace(QueryQ1Grouping, "distinct-values($d1//author)",
			`distinct-values(for $b in $d1//book where $b/title = "zzz" return $b/author)`, 1), "outer join"},
		{"Q6 over no item", strings.Replace(QueryQ6HavingCount, "distinct-values($d1//itemno)",
			`distinct-values(for $x in $d1//bidtuple where $x/itemno = "zzz" return $x/itemno)`, 1), "outer join"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := assertAllPlansAgree(t, eng, c.query); got != "" {
				t.Errorf("every plan answers %q, want nothing", got)
			}
			q, err := eng.Compile(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(planNames(q), c.alt) {
				t.Errorf("no plan %q among %v: the statement no longer probes an empty side", c.alt, planNames(q))
			}
		})
	}
}
