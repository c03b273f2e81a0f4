// Timeseries: the ordered-context workload the paper's introduction
// motivates ("applications dealing with time series, like finance, ...
// might also benefit from the unnesting techniques proposed in this
// paper"). Quotes arrive in time order; queries that group, aggregate and
// quantify over them must keep that order — which rules out the classical
// unordered unnesting techniques and calls for the order-preserving
// equivalences this library implements.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

// genQuotes builds a tick stream in time order: rounds of quotes over a
// fixed symbol universe with deterministic pseudo-random prices.
func genQuotes(rounds int) string {
	symbols := []string{"AAA", "BBB", "CCC", "DDD"}
	var sb strings.Builder
	sb.WriteString("<quotes>\n")
	seed := uint64(42)
	next := func(lo, hi int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return lo + int(seed>>33)%(hi-lo+1)
	}
	t := 0
	for r := 0; r < rounds; r++ {
		for _, sym := range symbols {
			price := 100 + next(-15, 15)
			switch sym {
			case "CCC":
				// CCC never trades below 100 — the steady stock the
				// universal-quantifier screen should single out.
				price = 100 + next(0, 15)
			case "DDD":
				// DDD trends down so the screens differentiate.
				price = 95 - r%10
			}
			fmt.Fprintf(&sb, "  <quote><time>%04d</time><symbol>%s</symbol><price>%d</price></quote>\n",
				t, sym, price)
			t++
		}
	}
	sb.WriteString("</quotes>")
	return sb.String()
}

func run(eng *nalquery.Engine, title, text string) {
	fmt.Printf("== %s\n", title)
	q, err := eng.Compile(text)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range q.Plans() {
		t0 := time.Now()
		out, stats, err := cli.RunPlan(q, p.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  plan %-14s %8s  doc-scans=%-3d nested-evals=%-5d output=%d bytes\n",
			p.Name, time.Since(t0).Round(time.Microsecond), stats.DocAccesses,
			stats.NestedEvals, len(out))
	}
	best, _ := q.Plan("")
	out, _, err := cli.RunPlan(q, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  chosen: %s\n", best.Name)
	preview := strings.Join(strings.Fields(out), " ")
	if len(preview) > 160 {
		preview = preview[:160] + "…"
	}
	fmt.Printf("  result: %s\n\n", preview)
}

func main() {
	eng := nalquery.NewEngine()
	if err := eng.LoadXMLString("quotes.xml", genQuotes(60)); err != nil {
		log.Fatal(err)
	}

	// Per-symbol tick history, ticks in arrival order inside each group —
	// the Q1 pattern on a time series. The nested plan rescans the stream
	// once per symbol; the unnested plans scan it once.
	run(eng, "per-symbol history (grouping)", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
return
  <series>
    <sym>{ $s1 }</sym>
    { let $d2 := doc("quotes.xml")
      for $q2 in $d2//quote
      let $s2 := $q2/symbol
      let $p2 := $q2/price
      where $s1 = $s2
      return $p2 }
  </series>`)

	// Minimum price per symbol — aggregation in the head (the Q2 pattern).
	run(eng, "low-water marks (aggregation)", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
let $m1 := min(
  let $d2 := doc("quotes.xml")
  for $q2 in $d2//quote
  let $s2 := $q2/symbol
  let $c2 := decimal($q2/price)
  where $s1 = $s2
  return $c2)
return <low><sym>{ $s1 }</sym><min>{ $m1 }</min></low>`)

	// Symbols that never traded below 90 — universal quantification over
	// the tick stream (the Q5 pattern: anti-semijoin or counting plan).
	run(eng, "never dipped below 90 (universal quantifier)", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
where every $p2 in (
    let $d3 := doc("quotes.xml")
    for $q3 in $d3//quote
    let $s3 := $q3/symbol
    let $p3 := $q3/price
    where $s1 = $s3
    return $p3)
  satisfies decimal($p2) > 90
return <steady>{ $s1 }</steady>`)

	// Symbols with at least one tick above 110 — existential quantifier
	// (the Q3 pattern: semijoin plan).
	run(eng, "spiked above 110 (existential quantifier)", `
let $d1 := doc("quotes.xml")
for $s1 in distinct-values($d1//symbol)
where some $p2 in (
    let $d3 := doc("quotes.xml")
    for $q3 in $d3//quote
    let $s3 := $q3/symbol
    let $p3 := $q3/price
    where $s1 = $s3
    return $p3)
  satisfies decimal($p2) > 110
return <spiker>{ $s1 }</spiker>`)
}
