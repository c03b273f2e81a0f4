// Grouping example (use case XMP): the paper's Sec. 5.1 and 5.2 workloads —
// restructuring a bibliography by author and computing minimal prices per
// title — executed over synthetic documents at increasing sizes, comparing
// all plan alternatives. This reproduces the performance effect of the
// evaluation tables in miniature.
package main

import (
	"fmt"
	"log"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

func main() {
	for _, size := range []int{100, 500} {
		fmt.Printf("=== %d books ===\n", size)
		eng := nalquery.NewEngine()
		eng.LoadUseCaseDocuments(size, 3)

		run(eng, "Q1 group books by author", nalquery.QueryQ1Grouping)
		run(eng, "Q2 minimal price per title", nalquery.QueryQ2Aggregation)
	}

	// The DBLP-like document: authors of articles and theses never author a
	// book, so Eqv. 5's condition fails and the engine offers only the
	// outer-join plan (which must keep authors with an empty title list).
	fmt.Println("=== DBLP-like document (Eqv. 5 inadmissible) ===")
	eng := nalquery.NewEngine()
	eng.LoadDBLPDocument(500)
	q, err := eng.Compile(nalquery.QueryQ1DBLP)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range q.Plans() {
		fmt.Printf("  available plan: %s\n", p.Name)
	}
}

func run(eng *nalquery.Engine, label, query string) {
	q, err := eng.Compile(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", label)
	var ref string
	for _, p := range q.Plans() {
		t0 := time.Now()
		out, stats, err := cli.RunPlan(q, p.Name)
		if err != nil {
			log.Fatal(err)
		}
		if ref == "" {
			ref = out
		} else if out != ref {
			log.Fatalf("plan %s produced a different result!", p.Name)
		}
		fmt.Printf("  %-12s %10v   scans=%d\n", p.Name, time.Since(t0).Round(time.Microsecond), stats.DocAccesses)
	}
}
