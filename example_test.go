package nalquery_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	nalquery "nalquery"
)

const exampleBib = `<bib>
<book year="1994"><title>TCP/IP Illustrated</title>
  <author><last>Stevens</last><first>W.</first></author>
  <publisher>AW</publisher><price>65.95</price></book>
<book year="2000"><title>Data on the Web</title>
  <author><last>Abiteboul</last><first>S.</first></author>
  <author><last>Suciu</last><first>D.</first></author>
  <publisher>MK</publisher><price>39.95</price></book>
</bib>`

// ExampleEngine_Query runs a nested query one-shot with the most optimized
// plan.
func ExampleEngine_Query() {
	eng := nalquery.NewEngine()
	if err := eng.LoadXMLString("bib.xml", exampleBib); err != nil {
		log.Fatal(err)
	}
	out, err := eng.Query(`
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return <a>{ $a1 }</a>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
	// Output: <a>StevensW.</a><a>AbiteboulS.</a><a>SuciuD.</a>
}

// ExampleQuery_Plans shows the plan alternatives the unnesting rewriter
// derives for a nested query.
func ExampleQuery_Plans() {
	eng := nalquery.NewEngine()
	if err := eng.LoadXMLString("bib.xml", exampleBib); err != nil {
		log.Fatal(err)
	}
	q, err := eng.Compile(`
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name>{ $a1 }</name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2//book[$a1 = author]
    return $b2/title }
  </author>`)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range q.Plans() {
		fmt.Printf("%s %v\n", p.Name, p.Applied)
	}
	// Output:
	// nested []
	// outer join [Eqv.4]
	// grouping [Eqv.5]
	// group Ξ [Eqv.5 xi-fusion]
	// indexed outer join [Eqv.4 index-scan]
	// indexed grouping [Eqv.5 index-scan]
	// indexed group Ξ [Eqv.5 xi-fusion index-scan]
}

// ExampleQuery_Run compares the nested baseline against an unnested plan:
// identical results, different scan counts.
func ExampleQuery_Run() {
	eng := nalquery.NewEngine()
	if err := eng.LoadXMLString("bib.xml", exampleBib); err != nil {
		log.Fatal(err)
	}
	q, err := eng.Compile(`
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
where some $t2 in (let $d2 := doc("bib.xml")
                   for $b2 in $d2//book
                   where $b2/@year > 1999
                   for $t3 in $b2/title
                   return $t3)
      satisfies $t1 = $t2
return <recent>{ $t1 }</recent>`)
	if err != nil {
		log.Fatal(err)
	}
	run := func(plan string) (string, nalquery.Stats) {
		res, err := q.Run(context.Background(), nalquery.WithPlan(plan))
		if err != nil {
			log.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteXML(&sb); err != nil {
			log.Fatal(err)
		}
		return sb.String(), res.Stats()
	}
	nested, nestedStats := run("nested")
	semi, semiStats := run("semijoin")
	fmt.Println(nested == semi)
	fmt.Println(nestedStats.DocAccesses > semiStats.DocAccesses)
	fmt.Println(semi)
	// Output:
	// true
	// true
	// <recent><title>Data on the Web</title></recent>
}

// ExampleBind prepares a query with an external variable once and binds a
// different value per run; nothing is recompiled.
func ExampleBind() {
	eng := nalquery.NewEngine()
	if err := eng.LoadXMLString("bib.xml", exampleBib); err != nil {
		log.Fatal(err)
	}
	p, err := eng.Prepare(`
declare variable $minyear external;
let $d1 := doc("bib.xml")
for $b1 in $d1//book
where $b1/@year > $minyear
return $b1/title`)
	if err != nil {
		log.Fatal(err)
	}
	for _, year := range []int{1990, 1999} {
		res, err := p.Run(context.Background(), nalquery.Bind("minyear", year))
		if err != nil {
			log.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteXML(&sb); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("books after %d: %s\n", year, sb.String())
	}
	// Output:
	// books after 1990: <title>TCP/IP Illustrated</title><title>Data on the Web</title>
	// books after 1999: <title>Data on the Web</title>
}
