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
//
// Every mode compiles against the generated corpus of -size (the use-case
// documents and dblp.xml), so the plans listed, the plan -dot best draws and
// the cardinalities are the ones Compile and Plan("") give over that corpus.
package main

import (
	"flag"
	"fmt"
	"io"
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
		cards     = flag.Bool("cards", false, "print estimated vs actual cardinality per operator (executes each subtree)")
		size      = flag.Int("size", 100, "size of the generated corpus (use-case documents and dblp.xml) the query compiles against")
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

	if err := explain(os.Stdout, text, *dot, *cards, *size); err != nil {
		fail(err)
	}
}

// explain compiles text over the corpus of the given size and writes what
// the mode asks for: the cardinalities of every plan (cards), one plan as
// Graphviz dot (dot, "best" for the cheapest), or the normalized form and
// every plan.
func explain(w io.Writer, text, dot string, cards bool, size int) error {
	eng := nalquery.NewEngine()
	loadCorpus(eng, size)
	q, err := eng.Compile(text)
	if err != nil {
		return err
	}

	if cards {
		for _, p := range q.Plans() {
			rows, err := q.ExplainCards(p.Name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== plan: %s (est vs actual cardinality) ==\n", p.Name)
			fmt.Fprint(w, nalquery.FormatCards(rows))
			fmt.Fprintln(w)
		}
		return nil
	}

	if dot != "" {
		if dot == "best" {
			dot = ""
		}
		p, err := q.Plan(dot)
		if err != nil {
			return err
		}
		fmt.Fprint(w, p.ExplainDot())
		return nil
	}

	fmt.Fprintln(w, "== query ==")
	fmt.Fprintln(w, strings.TrimSpace(text))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== normalized (Sec. 3) ==")
	fmt.Fprintln(w, q.Normalized)
	fmt.Fprintln(w)
	for _, p := range q.Plans() {
		applied := ""
		if len(p.Applied) > 0 {
			applied = " [" + strings.Join(p.Applied, ", ") + "]"
		}
		fmt.Fprintf(w, "== plan: %s%s ==\n", p.Name, applied)
		fmt.Fprint(w, p.Explain())
		fmt.Fprintln(w)
	}
	return nil
}

// loadCorpus loads what every mode compiles against: every document a paper
// query names, the use-case corpus and dblp.xml (q1dblp).
func loadCorpus(eng *nalquery.Engine, size int) {
	eng.LoadUseCaseDocuments(size, 2)
	eng.LoadDBLPDocument(size)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "nalexplain: %v\n", err)
	os.Exit(1)
}
