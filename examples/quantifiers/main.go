// Quantifiers example: the paper's Sec. 5.3–5.5 workloads — existential and
// universal quantification in an ordered context — with the plan
// alternatives the unnesting rewriter derives (semijoin, anti-semijoin,
// count-based grouping) and proof that every plan preserves document order.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

func main() {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(400, 2)

	show(eng, "Q3: books with reviews (some … satisfies)", nalquery.QueryQ3Existential)
	show(eng, "Q4: authors of books co-authored by Suciu (exists)", nalquery.QueryQ4Exists)
	show(eng, "Q5: authors whose books all appeared after 1993 (every)", nalquery.QueryQ5Universal)
}

func show(eng *nalquery.Engine, label, query string) {
	fmt.Println("==", label)
	q, err := eng.Compile(query)
	if err != nil {
		log.Fatal(err)
	}
	var ref string
	for _, p := range q.Plans() {
		t0 := time.Now()
		out, stats, err := cli.RunPlan(q, p.Name)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		if ref == "" {
			ref = out
		} else if out != ref {
			log.Fatalf("plan %s changed the (ordered!) result", p.Name)
		}
		rules := strings.Join(p.Applied, ",")
		if rules == "" {
			rules = "-"
		}
		fmt.Printf("  %-14s %10v  scans=%-4d rules=%s\n",
			p.Name, elapsed.Round(time.Microsecond), stats.DocAccesses, rules)
	}
	fmt.Printf("  result (first 120 bytes): %s\n\n", clip(ref, 120))
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
