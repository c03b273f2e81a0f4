package nalquery

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential testing: randomized variants of the paper's query shapes are
// compiled, and every plan alternative must produce byte-identical output
// under both execution engines. Unnested alternatives must additionally
// execute zero nested-loop iterations — the paper's central claim, asserted
// per query.

// randQuery builds a random query from the paper's shapes with randomized
// aggregates, comparison operators and thresholds.
func randQuery(rng *rand.Rand) string {
	aggs := []string{"min", "max", "sum", "count", "avg"}
	cmps := []string{">", ">=", "<", "<=", "="}
	switch rng.Intn(5) {
	case 0: // Q1 grouping
		return `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name>{ $a1 }</name>
    { let $d2 := doc("bib.xml")
      for $b2 in $d2//book
      let $a2 := $b2/author
      let $t2 := $b2/title
      where $a1 = $a2
      return $t2 }
  </author>`
	case 1: // Q2 aggregation with random aggregate
		return fmt.Sprintf(`
let $d1 := doc("prices.xml")
for $t1 in distinct-values($d1//book/title)
let $m1 := %s(
  let $d2 := doc("prices.xml")
  for $b2 in $d2//book
  let $t2 := $b2/title
  let $c2 := decimal($b2/price)
  where $t1 = $t2
  return $c2)
return <r><t>{ $t1 }</t><v>{ $m1 }</v></r>`, aggs[rng.Intn(len(aggs))])
	case 2: // Q3 existential with random predicate op
		return fmt.Sprintf(`
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
where some $t2 in (
  let $d3 := doc("reviews.xml")
  for $t3 in $d3//entry/title
  return $t3)
satisfies $t1 %s $t2
return <hit>{ string($t1) }</hit>`, cmps[rng.Intn(len(cmps))])
	case 3: // Q5 universal with random threshold
		return fmt.Sprintf(`
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where every $y2 in (
  let $d3 := doc("bib.xml")
  for $b3 in $d3//book
  let $y3 := $b3/@year
  for $a3 in $b3/author
  where $a1 = $a3
  return $y3)
satisfies $y2 > %d
return <na>{ $a1 }</na>`, 1980+rng.Intn(25))
	default: // Q6 having-count with random threshold
		return fmt.Sprintf(`
let $d1 := doc("bids.xml")
for $i1 in distinct-values($d1//itemno)
let $c1 := count(
  let $d2 := doc("bids.xml")
  for $i2 in $d2//bidtuple/itemno
  where $i1 = $i2
  return $i2)
where $c1 >= %d
return <pop>{ $i1 }</pop>`, 1+rng.Intn(5))
	}
}

// TestDifferentialPlansAgree: for each random query, every plan alternative
// produces the same output under both engines, and unnested plans run zero
// nested-loop iterations.
func TestDifferentialPlansAgree(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		eng := NewEngine()
		eng.LoadUseCaseDocuments(20+rng.Intn(60), 1+rng.Intn(3))
		text := randQuery(rng)
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("round %d: compile: %v\nquery: %s", i, err, text)
		}
		if len(q.Plans()) < 2 {
			t.Fatalf("round %d: no unnested alternative produced\nquery: %s", i, text)
		}
		var ref string
		for pi, p := range q.Plans() {
			out, stats, err := execute(q, p.Name)
			if err != nil {
				t.Fatalf("round %d plan %q: %v", i, p.Name, err)
			}
			if pi == 0 {
				ref = out
			} else if out != ref {
				t.Fatalf("round %d: plan %q output differs from nested baseline\nquery: %s\nnested: %q\n%s: %q",
					i, p.Name, text, ref, p.Name, out)
			}
			if !strings.Contains(p.Name, "nested") && stats.NestedEvals != 0 {
				t.Errorf("round %d: unnested plan %q executed %d nested-loop iterations",
					i, p.Name, stats.NestedEvals)
			}
			rout, _, err := execute(q, p.Name, WithReferenceEngine())
			if err != nil {
				t.Fatalf("round %d plan %q (reference): %v", i, p.Name, err)
			}
			if rout != out {
				t.Fatalf("round %d: plan %q output differs from the reference evaluator's", i, p.Name)
			}
		}
	}
}

// TestDifferentialCostRanking: across the random workload the cost model
// always ranks some unnested plan below the nested baseline, so the default
// choice is never the nested plan.
func TestDifferentialCostRanking(t *testing.T) {
	for i := 0; i < 15; i++ {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		eng := NewEngine()
		eng.LoadUseCaseDocuments(30+rng.Intn(40), 1+rng.Intn(3))
		q, err := eng.Compile(randQuery(rng))
		if err != nil {
			t.Fatal(err)
		}
		best, err := q.Plan("")
		if err != nil {
			t.Fatal(err)
		}
		if best.Name == "nested" {
			t.Errorf("round %d: cost model picked the nested plan over %v", i, planNames(q))
		}
	}
}
