package nalquery

import (
	"slices"
	"strings"
	"testing"

	"nalquery/internal/algebra"
)

// Conjunctive where clauses mixing a quantifier with plain predicates:
// normalization splits them (sound by σ-commutation, Sec. 2), so Eqv. 6/7
// still match the quantifier's selection and the plain conjunct ends up
// *below* the derived semijoin, filtering early.

const residualWhereQuery = `
let $d1 := document("bib.xml")
for $t1 in $d1//book/title
where (some $t2 in (
    let $d3 := document("reviews.xml")
    for $t3 in $d3//entry/title
    return $t3 )
  satisfies $t1 = $t2) and starts-with(string($t1), "Title 1")
return <hit>{ string($t1) }</hit>`

// TestResidualWherePushedBelowSemijoin: the semijoin plan exists despite
// the conjunction, the plain conjunct sits below the semijoin, and results
// match the nested baseline.
func TestResidualWherePushedBelowSemijoin(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 2)
	q, err := eng.Compile(residualWhereQuery)
	if err != nil {
		t.Fatal(err)
	}
	var semijoin *Plan
	for i := range q.Plans() {
		if q.Plans()[i].Name == "semijoin" {
			semijoin = &q.Plans()[i]
		}
	}
	if semijoin == nil {
		t.Fatalf("no semijoin plan despite the conjunctive where; have %v", planNames(q))
	}
	// Plan shape: the starts-with selection is below the semijoin (deeper
	// in the indented explain output).
	explain := semijoin.Explain()
	semiIdx := strings.Index(explain, "⋉")
	selIdx := strings.Index(explain, "starts-with")
	if semiIdx < 0 || selIdx < 0 {
		t.Fatalf("unexpected plan shape:\n%s", explain)
	}
	if selIdx < semiIdx {
		t.Errorf("starts-with selection still above the semijoin:\n%s", explain)
	}

	nested, nestedStats, err := execute(q, "nested")
	if err != nil {
		t.Fatal(err)
	}
	pushed, pushedStats, err := execute(q, "semijoin")
	if err != nil {
		t.Fatal(err)
	}
	if nested != pushed {
		t.Errorf("plans disagree:\nnested: %q\nsemijoin: %q", nested, pushed)
	}
	if !strings.Contains(pushed, "Title 1") {
		t.Errorf("expected matches in output, got %q", pushed)
	}
	if pushedStats.NestedEvals != 0 {
		t.Errorf("semijoin plan ran %d nested-loop iterations", pushedStats.NestedEvals)
	}
	if nestedStats.NestedEvals == 0 {
		t.Errorf("nested plan ran no nested-loop iterations")
	}
}

// TestConjunctiveEveryWhereUnnests: the same splitting admits Eqv. 7 for
// universal quantifiers in conjunctions.
func TestConjunctiveEveryWhereUnnests(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(40, 2)
	q, err := eng.Compile(`
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where (every $y2 in (
    let $d3 := doc("bib.xml")
    for $b3 in $d3//book
    let $y3 := $b3/@year
    for $a3 in $b3/author
    where $a1 = $a3
    return $y3)
  satisfies $y2 > 1993) and string-length($a1) > 3
return <na>{ $a1 }</na>`)
	if err != nil {
		t.Fatal(err)
	}
	names := planNames(q)
	hasUnnested := false
	for _, n := range names {
		if n == "anti-semijoin" || n == "grouping" {
			hasUnnested = true
		}
	}
	if !hasUnnested {
		t.Fatalf("conjunction blocked Eqv. 7/9; plans: %v", names)
	}
	ref := ""
	for i, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("plan %q: %v", p.Name, err)
		}
		if i == 0 {
			ref = out
		} else if out != ref {
			t.Errorf("plan %q output differs from nested", p.Name)
		}
	}
}

// TestAdjacentWhereClausesPushedBelowSemijoin: a quantified where clause
// followed by a plain one. Normalization moves the plain clause first (sound
// by σ-commutation), so Eqv. 6 alone builds the semijoin plan with the plain
// selection in its left input, and every plan agrees.
func TestAdjacentWhereClausesPushedBelowSemijoin(t *testing.T) {
	const query = `
for $b in doc("bib.xml")//book
where some $r in doc("reviews.xml")//entry satisfies $r/title = $b/title
where $b/@year > 1990
return $b/title`
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 2)
	if out := assertAllPlansAgree(t, eng, query); out == "" {
		t.Errorf("no book matches: the statement checks nothing")
	}
	q, err := eng.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	var semi *algebra.SemiJoin
	for _, p := range q.Plans() {
		if p.Name != "semijoin" {
			continue
		}
		if !slices.Equal(p.Applied, []string{"Eqv.6"}) {
			t.Errorf("semijoin plan applied %v, want [Eqv.6]", p.Applied)
		}
		var find func(algebra.Op)
		find = func(o algebra.Op) {
			if w, ok := o.(algebra.SemiJoin); ok && semi == nil {
				semi = &w
			}
			for _, c := range o.Children() {
				find(c)
			}
		}
		find(p.op)
	}
	if semi == nil {
		t.Fatalf("no semijoin plan with a ⋉; have %v", planNames(q))
	}
	if !strings.Contains(algebra.Explain(semi.L), "@year") {
		t.Errorf("the year selection is not in ⋉'s left input:\n%s", algebra.Explain(*semi))
	}
}
