// Command nalexplain shows the compilation pipeline of a query: the
// normalized source form (Sec. 3), every plan alternative the unnesting
// rewriter produces (Sec. 4) and the equivalences it applied.
//
// Usage:
//
//	nalexplain -q 'let $d := doc("bib.xml") ...'
//	nalexplain -query query.xq
//	nalexplain -paper q1          # one of the paper's queries
//	nalexplain -paper q1 -cards   # estimated vs actual cardinality per operator
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	nalquery "nalquery"
)

func main() {
	var (
		queryFile = flag.String("query", "", "file containing the XQuery")
		queryText = flag.String("q", "", "inline XQuery text")
		paper     = flag.String("paper", "", "one of the paper's queries: q1, q1dblp, q2..q6")
		dot       = flag.String("dot", "", "emit the named plan (or the cheapest for \"best\") as Graphviz dot instead of text")
		cards     = flag.Bool("cards", false, "print estimated vs actual cardinality per operator (loads the use-case corpus and dblp.xml and executes each subtree)")
		size      = flag.Int("size", 100, "corpus size for -cards")
	)
	flag.Parse()

	text := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fail(err)
		}
		text = string(b)
	}
	if *paper != "" {
		t, ok := nalquery.PaperQueries[*paper]
		if !ok {
			fmt.Fprintf(os.Stderr, "nalexplain: unknown paper query %q\n", *paper)
			os.Exit(2)
		}
		text = t
	}
	if text == "" {
		fmt.Fprintln(os.Stderr, "nalexplain: no query given (use -query, -q or -paper)")
		os.Exit(2)
	}

	eng := nalquery.NewEngine()
	if *cards {
		loadCorpus(eng, *size)
	}
	q, err := eng.Compile(text)
	if err != nil {
		fail(err)
	}

	if *cards {
		for _, p := range q.Plans() {
			rows, err := q.ExplainCards(p.Name)
			if err != nil {
				fail(err)
			}
			fmt.Printf("== plan: %s (est vs actual cardinality) ==\n", p.Name)
			fmt.Print(nalquery.FormatCards(rows))
			fmt.Println()
		}
		return
	}

	if *dot != "" {
		name := *dot
		if name == "best" {
			name = ""
		}
		p, err := q.Plan(name)
		if err != nil {
			fail(err)
		}
		fmt.Print(p.ExplainDot())
		return
	}

	fmt.Println("== query ==")
	fmt.Println(strings.TrimSpace(text))
	fmt.Println()
	fmt.Println("== normalized (Sec. 3) ==")
	fmt.Println(q.Normalized)
	fmt.Println()
	for _, p := range q.Plans() {
		applied := ""
		if len(p.Applied) > 0 {
			applied = " [" + strings.Join(p.Applied, ", ") + "]"
		}
		fmt.Printf("== plan: %s%s ==\n", p.Name, applied)
		fmt.Print(p.Explain())
		fmt.Println()
	}
}

// loadCorpus loads what -cards runs against: actual cardinalities need every
// document a paper query names, the use-case corpus and dblp.xml (q1dblp).
func loadCorpus(eng *nalquery.Engine, size int) {
	eng.LoadUseCaseDocuments(size, 2)
	eng.LoadDBLPDocument(size)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "nalexplain: %v\n", err)
	os.Exit(1)
}
