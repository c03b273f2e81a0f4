// Command nalsh is the query front end of the nalquery engine. Given a
// query (-q, -query or -paper) it runs it, or explains it, and exits;
// without one it is an interactive shell: type XQuery queries terminated
// by ';' and inspect the plan alternatives, applied unnesting
// equivalences, execution statistics and results.
//
//	nalsh -doc bib.xml=path/to/bib.xml [-doc ...] -query query.xq [-plan grouping] [-stats]
//	nalsh -gen 1000 -var minyear=1993 -q 'declare variable $minyear external; ...'
//	nalsh -gen 100 -paper q1 -explain    # normalized form and every plan alternative
//	nalsh -gen 100 -paper q1 -dot best   # the cheapest plan as Graphviz dot
//	nalsh -gen 100 -paper q1 -cards      # estimated vs actual cardinality per operator
//	nalsh -gen 100                       # the shell, over those documents
//
// -doc registers a document under the URI before '=' (a .nalb file as a
// binary store); -gen N generates the paper's six use-case documents and
// dblp.xml at size N. A query is explained over the documents it would run
// over. -var binds an external variable ("declare variable $x external;");
// values parse as integer, then float, then string (surrounding quotes
// stripped). -var, -timeout and -max-memory seed the shell's \set,
// \timeout and \limit. Exit codes: 2 for a usage error (a bad flag, -doc,
// -var or -max-memory, an unknown -paper id), 1 for a failed load, parse
// or run.
//
// Shell commands (one per line, starting with '\'):
//
//	\load URI FILE    load an XML document from FILE under URI
//	\gen SIZE [APB]   load the six use-case documents (Fig. 5 DTDs) at SIZE
//	                  elements (APB = authors per book, default 2)
//	\dblp SIZE        load the DBLP-like heterogeneous document
//	\docs             list loaded documents
//	\set NAME VALUE   bind the external variable $NAME for later queries
//	                  (VALUE parses as integer, then float, then string;
//	                  bare \set lists the current bindings)
//	\unset NAME       remove a binding
//	\timeout DUR      cancel runs exceeding DUR (e.g. 2s; 0 or "off" clears;
//	                  bare \timeout shows the current deadline)
//	\limit BYTES      abort runs past this memory budget (e.g. 64k, 16m;
//	                  0 or "off" clears; bare \limit shows the current limit)
//	\plans            show the plan alternatives of the last query
//	\explain [NAME]   print the operator tree of a plan of the last query
//	\plan NAME        execute a specific plan of the last query
//	\quit             exit
//
// Queries are compiled through the prepared path: a query declaring
// external variables picks its bindings from the \set table at each
// execution, with zero recompilation when re-running plans of the last
// query.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

// shell is the session state: the engine, the last prepared query, and the
// \set binding table external variables draw from.
type shell struct {
	eng     *nalquery.Engine
	out     io.Writer
	last    *nalquery.Prepared
	vars    map[string]any
	timeout time.Duration // per-run deadline set by -timeout or \timeout; 0 = none
	limit   int64         // per-run memory budget set by -max-memory or \limit; 0 = none
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// run is nalsh with its arguments and streams given: it loads what the
// flags name, then runs or explains the query they give, or reads a shell
// session from stdin. It returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nalsh", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var docs, vars listFlag
	fs.Var(&docs, "doc", "uri=path document registration (repeatable)")
	fs.Var(&vars, "var", "name=value binding for an external variable (repeatable)")
	var (
		gen       = fs.Int("gen", 0, "generate the use-case documents and dblp.xml at this size instead of loading files")
		apb       = fs.Int("authors", 2, "authors per book for -gen")
		queryText = fs.String("q", "", "inline XQuery text")
		queryFile = fs.String("query", "", "file containing the XQuery")
		paper     = fs.String("paper", "", "one of the paper's queries: q1, q1dblp, q2..q6")
		plan      = fs.String("plan", "", "plan alternative to execute (default: most optimized; 'nested' for the baseline)")
		stats     = fs.Bool("stats", false, "print execution statistics to stderr")
		timeout   = fs.Duration("timeout", 0, "cancel a run after this long (0 = no deadline)")
		maxMemory = fs.String("max-memory", "0", "abort a run past this memory budget (bytes, k/m/g suffix; 0 = unlimited)")
		explainIt = fs.Bool("explain", false, "print the normalized form and every plan alternative instead of running the query")
		dot       = fs.String("dot", "", "print the named plan (or the cheapest for \"best\") as Graphviz dot instead of running the query")
		cards     = fs.Bool("cards", false, "print estimated vs actual cardinality per operator of every plan (executes each subtree)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nalsh: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "nalsh: %v\n", err)
		return 1
	}

	text := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			return fail(err)
		}
		text = string(b)
	}
	if *paper != "" {
		t, ok := nalquery.PaperQueries[*paper]
		if !ok {
			return usage("unknown paper query %q", *paper)
		}
		text = t
	}
	sh := &shell{eng: nalquery.NewEngine(), out: stdout, vars: map[string]any{}, timeout: *timeout}
	var err error
	if sh.limit, err = cli.ParseBytes(*maxMemory); err != nil {
		return usage("-max-memory: %v", err)
	}
	for _, v := range vars {
		name, val, ok := strings.Cut(v, "=")
		if !ok {
			return usage("-var needs name=value, got %q", v)
		}
		sh.vars[strings.TrimPrefix(name, "$")] = cli.ParseVarValue(val)
	}
	if *gen > 0 {
		sh.eng.LoadUseCaseDocuments(*gen, *apb)
		sh.eng.LoadDBLPDocument(*gen)
	}
	for _, d := range docs {
		if err := cli.LoadDoc(sh.eng, d); errors.Is(err, cli.ErrDocSpec) {
			return usage("%v", err)
		} else if err != nil {
			return fail(err)
		}
	}
	if text == "" {
		sh.repl(stdin)
		return 0
	}

	q, err := sh.eng.Prepare(text)
	if err != nil {
		fmt.Fprintf(stderr, "nalsh: %s\n", describe(err, text))
		return 1
	}
	if *explainIt || *dot != "" || *cards {
		if err := explain(stdout, q, text, *dot, *cards); err != nil {
			return fail(err)
		}
		return 0
	}
	for name := range sh.vars {
		if !slices.Contains(q.Vars(), name) {
			return fail(fmt.Errorf("-var %s: the query declares no such external variable", name))
		}
	}
	name, elapsed, st, err := sh.execute(stdout, q, *plan)
	if err != nil {
		return fail(err)
	}
	if *stats {
		fmt.Fprintf(stderr, "plan: %s  time: %v  doc-accesses: %d  nested-evals: %d  tuples: %d\n",
			name, elapsed, st.DocAccesses, st.NestedEvals, st.Tuples)
	}
	return 0
}

// describe renders err; for a parse error of text it adds the source line
// with a caret under the column the error names.
func describe(err error, text string) string {
	var pe *nalquery.ParseError
	if errors.As(err, &pe) {
		if caret := cli.Caret(text, pe.Line, pe.Col); caret != "" {
			return fmt.Sprintf("%v\n%s", err, caret)
		}
	}
	return err.Error()
}

// explain writes what the explain flags ask for: the cardinalities of
// every plan (cards), one plan as Graphviz dot (dot, "best" for the
// cheapest), or the normalized form and every plan.
func explain(w io.Writer, q *nalquery.Query, text, dot string, cards bool) error {
	switch {
	case cards:
		for _, p := range q.Plans() {
			rows, err := q.ExplainCards(p.Name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== plan: %s (est vs actual cardinality) ==\n", p.Name)
			fmt.Fprint(w, nalquery.FormatCards(rows))
			fmt.Fprintln(w)
		}
	case dot != "":
		if dot == "best" {
			dot = ""
		}
		p, err := q.Plan(dot)
		if err != nil {
			return err
		}
		fmt.Fprint(w, p.ExplainDot())
	default:
		fmt.Fprintf(w, "== query ==\n%s\n\n== normalized (Sec. 3) ==\n%s\n\n", strings.TrimSpace(text), q.Normalized)
		for _, p := range q.Plans() {
			applied := ""
			if len(p.Applied) > 0 {
				applied = " [" + strings.Join(p.Applied, ", ") + "]"
			}
			fmt.Fprintf(w, "== plan: %s%s ==\n%s\n", p.Name, applied, p.Explain())
		}
	}
	return nil
}

// repl reads a session from in: backslash commands, and queries that end
// with ';'.
func (sh *shell) repl(in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder

	fmt.Fprintln(sh.out, "nalquery shell — terminate queries with ';', \\quit to exit")
	sh.prompt(false)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !sh.command(trimmed) {
				return
			}
			sh.prompt(false)
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if terminator(stripProlog(buf.String())) >= 0 {
			text := buf.String()
			text = strings.TrimSpace(text[:terminator(text)])
			buf.Reset()
			sh.runQuery(text)
		}
		sh.prompt(buf.Len() > 0)
	}
}

func (sh *shell) prompt(continuation bool) {
	if continuation {
		fmt.Fprint(sh.out, "   ...> ")
	} else {
		fmt.Fprint(sh.out, "nal> ")
	}
}

// command executes one backslash command; it returns false on \quit.
func (sh *shell) command(line string) bool {
	eng, last, out := sh.eng, &sh.last, sh.out
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\load`:
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: \\load URI FILE")
			return true
		}
		f, err := os.Open(fields[2])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return true
		}
		defer f.Close()
		if err := eng.LoadXML(fields[1], f); err != nil {
			fmt.Fprintln(out, "error:", err)
			return true
		}
		fmt.Fprintf(out, "loaded %s\n", fields[1])
	case `\set`:
		switch len(fields) {
		case 1:
			if len(sh.vars) == 0 {
				fmt.Fprintln(out, "no variables set")
				return true
			}
			names := make([]string, 0, len(sh.vars))
			for n := range sh.vars {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(out, "  $%s = %v\n", n, sh.vars[n])
			}
		case 2:
			fmt.Fprintln(out, "usage: \\set NAME VALUE (bare \\set lists bindings)")
		default:
			name := strings.TrimPrefix(fields[1], "$")
			sh.vars[name] = cli.ParseVarValue(strings.Join(fields[2:], " "))
			fmt.Fprintf(out, "$%s = %v\n", name, sh.vars[name])
		}
	case `\unset`:
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\unset NAME")
			return true
		}
		delete(sh.vars, strings.TrimPrefix(fields[1], "$"))
	case `\timeout`:
		switch {
		case len(fields) == 1:
			if sh.timeout == 0 {
				fmt.Fprintln(out, "no timeout set")
			} else {
				fmt.Fprintf(out, "timeout = %v\n", sh.timeout)
			}
		case fields[1] == "off" || fields[1] == "0":
			sh.timeout = 0
			fmt.Fprintln(out, "timeout cleared")
		default:
			d, err := time.ParseDuration(fields[1])
			if err != nil || d < 0 {
				fmt.Fprintln(out, "usage: \\timeout DURATION (e.g. 2s, 500ms; 0 or off clears)")
				return true
			}
			sh.timeout = d
			fmt.Fprintf(out, "timeout = %v\n", d)
		}
	case `\limit`:
		switch {
		case len(fields) == 1:
			if sh.limit == 0 {
				fmt.Fprintln(out, "no memory limit set")
			} else {
				fmt.Fprintf(out, "limit = %d bytes\n", sh.limit)
			}
		case fields[1] == "off" || fields[1] == "0":
			sh.limit = 0
			fmt.Fprintln(out, "memory limit cleared")
		default:
			n, err := cli.ParseBytes(fields[1])
			if err != nil {
				fmt.Fprintln(out, "usage: \\limit BYTES (e.g. 65536, 64k, 16m; 0 or off clears)")
				return true
			}
			sh.limit = n
			fmt.Fprintf(out, "limit = %d bytes\n", n)
		}
	case `\gen`:
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\gen SIZE [AUTHORS_PER_BOOK]")
			return true
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return true
		}
		apb := 2
		if len(fields) > 2 {
			if apb, err = strconv.Atoi(fields[2]); err != nil {
				fmt.Fprintln(out, "error:", err)
				return true
			}
		}
		eng.LoadUseCaseDocuments(size, apb)
		fmt.Fprintf(out, "generated use-case documents at size %d (%d authors/book)\n", size, apb)
	case `\dblp`:
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\dblp SIZE")
			return true
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return true
		}
		eng.LoadDBLPDocument(size)
		fmt.Fprintf(out, "generated dblp.xml at size %d\n", size)
	case `\docs`:
		for _, uri := range eng.DocumentURIs() {
			fmt.Fprintln(out, " ", uri)
		}
	case `\plans`:
		if *last == nil {
			fmt.Fprintln(out, "no query compiled yet")
			return true
		}
		for _, p := range (*last).Plans() {
			applied := ""
			if len(p.Applied) > 0 {
				applied = "  [" + strings.Join(p.Applied, ", ") + "]"
			}
			fmt.Fprintf(out, "  %-18s cost=%.0f%s\n", p.Name, p.EstimatedCost, applied)
		}
	case `\explain`:
		if *last == nil {
			fmt.Fprintln(out, "no query compiled yet")
			return true
		}
		name := ""
		if len(fields) > 1 {
			name = strings.Join(fields[1:], " ")
		}
		p, err := (*last).Plan(name)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return true
		}
		fmt.Fprintf(out, "plan %s:\n%s\n", p.Name, p.Explain())
	case `\plan`:
		if *last == nil {
			fmt.Fprintln(out, "no query compiled yet")
			return true
		}
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\plan NAME")
			return true
		}
		sh.runPlan(*last, strings.Join(fields[1:], " "))
	default:
		fmt.Fprintf(out, "unknown command %s\n", fields[0])
	}
	return true
}

// terminator returns the index of the ';' that ends the query in s: its last
// character outside strings and comments, followed by nothing but
// whitespace and comments (: … :), which nest. It is -1 when s does not end
// so, inside an open string or comment included.
func terminator(s string) int {
	end, depth := -1, 0
	var quote byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case strings.HasPrefix(s[i:], "(:"):
			depth++
			i++
		case depth > 0:
			if strings.HasPrefix(s[i:], ":)") {
				depth--
				i++
			}
		case c == ';':
			end = i
		case c == '"' || c == '\'':
			quote, end = c, -1
		case c != ' ' && c != '\t' && c != '\n' && c != '\r':
			end = -1
		}
	}
	if quote != 0 || depth > 0 {
		return -1
	}
	return end
}

// stripProlog drops leading "declare variable $x external;" declarations
// so their terminating ';' does not end the query buffer early — only a
// ';' after the body completes a query.
func stripProlog(s string) string {
	for {
		t := strings.TrimSpace(s)
		if !strings.HasPrefix(t, "declare") {
			return t
		}
		i := strings.Index(t, ";")
		if i < 0 {
			return t
		}
		s = t[i+1:]
	}
}

func (sh *shell) runQuery(text string) {
	p, err := sh.eng.Prepare(text)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", describe(err, text))
		return
	}
	sh.last = p
	fmt.Fprintf(sh.out, "compiled; %d plan alternatives (\\plans to list)\n", len(p.Plans()))
	if vars := p.Vars(); len(vars) > 0 {
		fmt.Fprintf(sh.out, "external variables: $%s (\\set NAME VALUE to bind)\n", strings.Join(vars, ", $"))
	}
	sh.runPlan(p, "")
}

// runPlan executes plan name of q and prints its result and a trailer of
// the plan, time and counters, or the error.
func (sh *shell) runPlan(q *nalquery.Prepared, name string) {
	plan, elapsed, st, err := sh.execute(sh.out, q, name)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprintf(sh.out, "-- plan %s, %s, doc-scans=%d, nested-evals=%d\n",
		plan, elapsed.Round(time.Microsecond), st.DocAccesses, st.NestedEvals)
}

// execute runs plan name of q ("" = most optimized) under the session's
// bindings, deadline and memory budget, and streams the result to w,
// ended by a newline. It returns the plan that ran, the time taken and the
// run's counters. A result cut short by an error is written as far as it
// got, so the error follows it.
func (sh *shell) execute(w io.Writer, q *nalquery.Prepared, name string) (string, time.Duration, nalquery.Stats, error) {
	// Stream the result instead of materializing the whole output string:
	// memory stays bounded by the plan's pipeline-breaker state, and
	// Ctrl-C cancels a long-running plan mid-stream.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if sh.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sh.timeout)
		defer cancel()
	}
	var st nalquery.Stats
	t0 := time.Now()
	opts := []nalquery.RunOption{nalquery.WithPlan(name), nalquery.WithStats(&st)}
	if sh.limit > 0 {
		opts = append(opts, nalquery.WithMaxMemory(sh.limit))
	}
	for _, v := range q.Vars() {
		if val, ok := sh.vars[v]; ok {
			opts = append(opts, nalquery.Bind(v, val))
		}
	}
	res, err := q.Run(ctx, opts...)
	if err != nil {
		return "", 0, st, err
	}
	bw := bufio.NewWriter(w)
	err = res.WriteXML(bw)
	bw.WriteByte('\n')
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return res.Plan().Name, time.Since(t0), st, err
}
