// Auction example (use case R): queries over the users/items/bids documents
// of the XQuery use cases — the paper's Sec. 5.6 "popular items" query plus
// further analytical queries exercising aggregation and joins through the
// public API.
package main

import (
	"fmt"
	"log"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

func main() {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(300, 2)

	// The paper's Query 1.4.4.14: items with at least three bids
	// (aggregation in the where clause — a SQL HAVING in XQuery clothing).
	popular, err := eng.Query(nalquery.QueryQ6HavingCount)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("items with >= 3 bids:")
	fmt.Println(clip(popular, 200))

	// Highest bid per item: grouping + max aggregation, unnested via Eqv. 3.
	highest, err := eng.Query(`
let $d1 := document("bids.xml")
for $i1 in distinct-values($d1//itemno)
let $m1 := max(let $d2 := document("bids.xml")
               for $b2 in $d2//bidtuple
               let $i2 := $b2/itemno
               let $a2 := $b2/bid
               where $i1 = $i2
               return decimal($a2))
return <high item="{ $i1 }">{ $m1 }</high>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhighest bid per item:")
	fmt.Println(clip(highest, 200))

	// Users who placed at least one bid: an existential quantifier over a
	// second document, unnested into an order-preserving semijoin (Eqv. 6).
	q, err := eng.Compile(`
let $d1 := document("users.xml")
for $u1 in $d1//usertuple/userid
where some $u2 in (let $d2 := document("bids.xml")
                   for $u3 in $d2//bidtuple/userid
                   return $u3)
      satisfies $u1 = $u2
return <active>{ $u1 }</active>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nactive bidders (per plan):")
	for _, p := range q.Plans() {
		out, stats, err := cli.RunPlan(q, p.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s scans=%d  %s\n", p.Name, stats.DocAccesses, clip(out, 80))
	}

	// Items nobody has bid on: universal quantification → anti-semijoin
	// (Eqv. 7) or the count-based plan (Eqv. 9).
	idle, err := eng.Query(`
let $d1 := document("items.xml")
for $i1 in distinct-values($d1//itemtuple/itemno)
where every $b2 in (let $d2 := document("bids.xml")
                    for $i3 in $d2//bidtuple/itemno
                    where $i3 = $i1
                    return $i3)
      satisfies false()
return <idle>{ $i1 }</idle>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nitems without bids:")
	fmt.Println(clip(idle, 200))
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
