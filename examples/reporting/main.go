// Reporting: the frontend extensions working together — order by
// (descending), positional for-bindings (at $i), conditionals
// (if/then/else), positional path predicates and the string builtins —
// on top of the order-preserving engine.
package main

import (
	"fmt"
	"log"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

const catalog = `<catalog>
  <product><name>widget mk I</name><price>19.50</price><stock>3</stock></product>
  <product><name>widget mk II</name><price>42.00</price><stock>0</stock></product>
  <product><name>gizmo</name><price>7.25</price><stock>120</stock></product>
  <product><name>doohickey deluxe</name><price>99.99</price><stock>1</stock></product>
  <product><name>contraption</name><price>42.00</price><stock>17</stock></product>
</catalog>`

func run(eng *nalquery.Engine, title, text string) {
	q, err := eng.Compile(text)
	if err != nil {
		log.Fatalf("%s: %v", title, err)
	}
	out, stats, err := cli.RunPlan(q, "")
	if err != nil {
		log.Fatalf("%s: %v", title, err)
	}
	fmt.Printf("== %s (doc-scans=%d)\n%s\n\n", title, stats.DocAccesses, out)
}

func main() {
	eng := nalquery.NewEngine()
	if err := eng.LoadXMLString("catalog.xml", catalog); err != nil {
		log.Fatal(err)
	}

	// Price list, most expensive first; ties broken by document order
	// (the sort is stable). Each line keeps the product's original catalog
	// position through the positional binding — assigned before the sort.
	run(eng, "price list (order by descending + at $i)", `
let $d := doc("catalog.xml")
for $p at $i in $d//product
order by decimal($p/price) descending
return <line pos="{ $i }">{ upper-case(string($p/name)) }: { string($p/price) }</line>`)

	// Availability report with conditional labels.
	run(eng, "availability (if/then/else)", `
let $d := doc("catalog.xml")
for $p in $d//product
return <item>
  <n>{ string($p/name) }</n>
  <status>{ if (decimal($p/stock) = 0) then "SOLD OUT"
            else if (decimal($p/stock) < 5) then "LOW" else "OK" }</status>
</item>`)

	// The cheapest product: order by + positional predicate on the sorted
	// result is not expressible, but a min() aggregate with a grouping plan
	// is — the engine unnests it.
	run(eng, "cheapest (aggregation)", `
let $d := doc("catalog.xml")
for $n in distinct-values($d//product/name)
let $m := min(
  let $d2 := doc("catalog.xml")
  for $p2 in $d2//product
  let $n2 := $p2/name
  let $c2 := decimal($p2/price)
  where $n = $n2
  return $c2)
where $m < 10
return <cheap>{ concat($n, " at ", $m) }</cheap>`)

	// First word of each name via the string builtins.
	run(eng, "short names (substring-before)", `
let $d := doc("catalog.xml")
for $p in $d//product
return <s>{ if (contains(string($p/name), " "))
            then substring-before(string($p/name), " ")
            else string($p/name) }</s>`)
}
