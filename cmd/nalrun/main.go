// Command nalrun executes an XQuery against XML documents.
//
// Usage:
//
//	nalrun -doc bib.xml=path/to/bib.xml [-doc ...] -query query.xq [-plan grouping] [-stats]
//	nalrun -gen 1000 -q 'let $d := doc("bib.xml") ...'
//	nalrun -gen 1000 -var minyear=1993 -q 'declare variable $minyear external; ...'
//	nalrun -gen 5000 -timeout 2s -query heavy.xq
//
// Documents are registered under the URI given before '='; queries reference
// them via doc("uri"). With -gen N, the six synthetic use-case documents of
// the paper are generated at size N instead of being loaded from disk.
// External variables of the query ("declare variable $x external;") are
// bound with repeatable -var name=value flags; values parse as integer,
// then float, then string (surrounding quotes stripped).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

type docFlags []string

func (d *docFlags) String() string     { return strings.Join(*d, ",") }
func (d *docFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var docs docFlags
	var vars docFlags
	var (
		queryFile = flag.String("query", "", "file containing the XQuery")
		queryText = flag.String("q", "", "inline XQuery text")
		plan      = flag.String("plan", "", "plan alternative to execute (default: most optimized; 'nested' for the baseline)")
		gen       = flag.Int("gen", 0, "generate the synthetic use-case documents at this size instead of loading files")
		apb       = flag.Int("authors", 2, "authors per book for -gen")
		stats     = flag.Bool("stats", false, "print execution statistics to stderr")
		timeout   = flag.Duration("timeout", 0, "cancel the run after this long (0 = no deadline)")
		maxMemory = flag.String("max-memory", "0", "abort the run past this memory budget (bytes, k/m/g suffix; 0 = unlimited)")
	)
	flag.Var(&docs, "doc", "uri=path document registration (repeatable)")
	flag.Var(&vars, "var", "name=value binding for an external variable (repeatable)")
	flag.Parse()

	text := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fail(err)
		}
		text = string(b)
	}
	if text == "" {
		fmt.Fprintln(os.Stderr, "nalrun: no query given (use -query FILE or -q TEXT)")
		os.Exit(2)
	}

	eng := nalquery.NewEngine()
	if *gen > 0 {
		eng.LoadUseCaseDocuments(*gen, *apb)
		eng.LoadDBLPDocument(*gen)
	}
	for _, d := range docs {
		if err := cli.LoadDoc(eng, d); errors.Is(err, cli.ErrDocSpec) {
			fmt.Fprintf(os.Stderr, "nalrun: %v\n", err)
			os.Exit(2)
		} else if err != nil {
			fail(err)
		}
	}

	// The prepared path: compile once, bind the -var values per run. A
	// query without external variables prepares identically.
	prep, err := eng.Prepare(text)
	if err != nil {
		var pe *nalquery.ParseError
		if errors.As(err, &pe) {
			if caret := cli.Caret(text, pe.Line, pe.Col); caret != "" {
				fmt.Fprintf(os.Stderr, "nalrun: %v\n%s\n", err, caret)
				os.Exit(1)
			}
		}
		fail(err)
	}
	opts := []nalquery.RunOption{nalquery.WithPlan(*plan)}
	if budget, err := cli.ParseBytes(*maxMemory); err != nil {
		fmt.Fprintf(os.Stderr, "nalrun: -max-memory: %v\n", err)
		os.Exit(2)
	} else if budget > 0 {
		opts = append(opts, nalquery.WithMaxMemory(budget))
	}
	for _, v := range vars {
		name, val, ok := strings.Cut(v, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "nalrun: -var needs name=value, got %q\n", v)
			os.Exit(2)
		}
		opts = append(opts, nalquery.Bind(strings.TrimPrefix(name, "$"), cli.ParseVarValue(val)))
	}
	// Stream the result to stdout instead of materializing it: memory stays
	// bounded by the plan's pipeline-breaker state, and Ctrl-C cancels the
	// run mid-stream through the context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var st nalquery.Stats
	t0 := time.Now()
	res, err := prep.Run(ctx, append(opts, nalquery.WithStats(&st))...)
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := res.WriteXML(w); err != nil {
		fail(err)
	}
	fmt.Fprintln(w)
	if err := w.Flush(); err != nil {
		fail(err)
	}
	elapsed := time.Since(t0)
	if *stats {
		p := res.Plan()
		fmt.Fprintf(os.Stderr, "plan: %s  time: %v  doc-accesses: %d  nested-evals: %d  tuples: %d\n",
			p.Name, elapsed, st.DocAccesses, st.NestedEvals, st.Tuples)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "nalrun: %v\n", err)
	os.Exit(1)
}
