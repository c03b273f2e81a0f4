// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5 and Fig. 6). Each experiment builds the synthetic
// documents of the corresponding measurement point, compiles the paper's
// query, executes every plan alternative and reports wall-clock time plus
// the scan counters (document accesses and nested-loop iterations) that
// explain the paper's analysis. The allocation trajectory (cmd/nalbench
// -json) measures the plans of these tables. The wall-clock columns are for
// reading the tables' shape; a performance claim is measured with
// benchmark/.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	nalquery "nalquery"
	"nalquery/internal/cli"
	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
)

// Experiment describes one evaluation table of the paper.
type Experiment struct {
	// ID is the short id used by the bench harness (q1, q1dblp, q2 ... q6).
	ID string
	// Title cites the paper's section and query.
	Title string
	// Query is the XQuery text.
	Query string
	// VaryAuthors is true for Q1, which varies authors-per-book (2, 5, 10).
	VaryAuthors bool
	// DBLP is true for the DBLP-like document experiment.
	DBLP bool
	// DefaultSizes are the paper's measurement points.
	DefaultSizes []int
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "q1", Title: "Sec. 5.1, Query 1.1.9.4 (Grouping)", Query: nalquery.QueryQ1Grouping,
			VaryAuthors: true, DefaultSizes: []int{100, 1000, 10000}},
		{ID: "q1dblp", Title: "Sec. 5.1, DBLP document (Eqv. 5 inadmissible)", Query: nalquery.QueryQ1DBLP,
			DBLP: true, DefaultSizes: []int{100, 1000, 10000}},
		{ID: "q2", Title: "Sec. 5.2, Query 1.1.9.10 (Aggregation)", Query: nalquery.QueryQ2Aggregation,
			DefaultSizes: []int{100, 1000, 10000}},
		{ID: "q3", Title: "Sec. 5.3, Query 1.1.9.5 (Existential Quantification I)", Query: nalquery.QueryQ3Existential,
			DefaultSizes: []int{100, 1000, 10000}},
		{ID: "q4", Title: "Sec. 5.4, Existential Quantification II (exists)", Query: nalquery.QueryQ4Exists,
			DefaultSizes: []int{100, 1000, 10000}},
		{ID: "q5", Title: "Sec. 5.5, Universal Quantification", Query: nalquery.QueryQ5Universal,
			DefaultSizes: []int{100, 1000, 10000}},
		{ID: "q6", Title: "Sec. 5.6, Query 1.4.4.14 (Aggregation in the Where Clause)", Query: nalquery.QueryQ6HavingCount,
			DefaultSizes: []int{100, 1000, 10000}},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Measurement is one (plan, size, authors-per-book) timing.
type Measurement struct {
	Exp     string
	Plan    string
	Size    int
	APB     int // authors per book; 0 when not varied
	Elapsed time.Duration
	Stats   nalquery.Stats
	Output  int // bytes of constructed result
}

// Options control a run.
type Options struct {
	// Sizes overrides the experiment's default measurement points.
	Sizes []int
	// MaxNestedSize caps the document size at which the quadratic nested
	// plan is still executed (it needs ~8 minutes at 10000 books — the
	// paper's own nested numbers are in the hundreds of seconds). 0 means
	// no cap.
	MaxNestedSize int
	// AuthorsPerBook overrides the varied group sizes for Q1.
	AuthorsPerBook []int
	// Repeat averages over this many runs (default 1).
	Repeat int
}

func (o Options) repeat() int {
	if o.Repeat < 1 {
		return 1
	}
	return o.Repeat
}

// NewEngine builds an engine loaded with the documents of one measurement
// point of the experiment.
func NewEngine(exp Experiment, size, apb int) *nalquery.Engine {
	e := nalquery.NewEngine()
	if exp.DBLP {
		e.LoadDBLPDocument(size)
		return e
	}
	if apb == 0 {
		apb = 2
	}
	e.LoadUseCaseDocuments(size, apb)
	return e
}

// Run executes one experiment and returns its measurements.
func Run(exp Experiment, opts Options) ([]Measurement, error) {
	sizes := opts.Sizes
	if len(sizes) == 0 {
		sizes = exp.DefaultSizes
	}
	apbs := []int{0}
	if exp.VaryAuthors {
		apbs = opts.AuthorsPerBook
		if len(apbs) == 0 {
			apbs = []int{2, 5, 10}
		}
	}
	var out []Measurement
	for _, apb := range apbs {
		for _, size := range sizes {
			eng := NewEngine(exp, size, apb)
			q, err := eng.Compile(exp.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", exp.ID, err)
			}
			for _, p := range q.Plans() {
				if p.Name == "nested" && opts.MaxNestedSize > 0 && size > opts.MaxNestedSize {
					continue
				}
				var total time.Duration
				var stats nalquery.Stats
				var outLen int
				for r := 0; r < opts.repeat(); r++ {
					t0 := time.Now()
					res, st, err := cli.RunPlan(q, p.Name)
					if err != nil {
						return nil, fmt.Errorf("%s/%s: %w", exp.ID, p.Name, err)
					}
					total += time.Since(t0)
					stats = st
					outLen = len(res)
				}
				out = append(out, Measurement{
					Exp: exp.ID, Plan: p.Name, Size: size, APB: apb,
					Elapsed: total / time.Duration(opts.repeat()),
					Stats:   stats, Output: outLen,
				})
			}
		}
	}
	return out, nil
}

// PrintTable renders measurements in the layout of the paper's evaluation
// tables: one row per plan (and per authors-per-book setting for Q1), one
// column per document size.
func PrintTable(w io.Writer, exp Experiment, ms []Measurement) {
	fmt.Fprintf(w, "%s — %s\n", exp.ID, exp.Title)

	sizeSet := map[int]bool{}
	type rowKey struct {
		plan string
		apb  int
	}
	rows := map[rowKey]map[int]Measurement{}
	var order []rowKey
	for _, m := range ms {
		sizeSet[m.Size] = true
		k := rowKey{m.Plan, m.APB}
		if _, ok := rows[k]; !ok {
			rows[k] = map[int]Measurement{}
			order = append(order, k)
		}
		rows[k][m.Size] = m
	}
	var sizes []int
	for s := range sizeSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	fmt.Fprintf(w, "%-16s", "Plan")
	if exp.VaryAuthors {
		fmt.Fprintf(w, "%-10s", "auth/book")
	}
	for _, s := range sizes {
		fmt.Fprintf(w, "%12d", s)
	}
	fmt.Fprintf(w, "%14s\n", "scans@max")
	for _, k := range order {
		fmt.Fprintf(w, "%-16s", k.plan)
		if exp.VaryAuthors {
			fmt.Fprintf(w, "%-10d", k.apb)
		}
		var last Measurement
		for _, s := range sizes {
			m, ok := rows[k][s]
			if !ok {
				fmt.Fprintf(w, "%12s", "—")
				continue
			}
			fmt.Fprintf(w, "%12s", fmtDur(m.Elapsed))
			last = m
		}
		fmt.Fprintf(w, "%14d\n", last.Stats.DocAccesses)
	}
	fmt.Fprintln(w)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Fig6Row is one row of the document-size table (Fig. 6).
type Fig6Row struct {
	File  string
	Size  int // element count parameter
	APB   int // authors per book for bib.xml, 0 otherwise
	Bytes int
}

// Fig6 regenerates the document-size figure: the serialized size of every
// use-case document at each measurement point.
func Fig6(sizes []int, apbs []int) []Fig6Row {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10000}
	}
	if len(apbs) == 0 {
		apbs = []int{2, 5, 10}
	}
	var rows []Fig6Row
	for _, size := range sizes {
		for _, apb := range apbs {
			cfg := xmlgen.DefaultConfig(size)
			cfg.AuthorsPerBook = apb
			rows = append(rows, Fig6Row{File: "bib.xml", Size: size, APB: apb,
				Bytes: len(dom.XMLString(xmlgen.Bib(cfg).RootElement()))})
		}
		cfg := xmlgen.DefaultConfig(size)
		for _, gen := range []struct {
			name string
			doc  *dom.Document
		}{
			{"prices.xml", xmlgen.Prices(cfg)},
			{"reviews.xml", xmlgen.Reviews(cfg)},
			{"bids.xml", xmlgen.Bids(cfg)},
			{"items.xml", xmlgen.Items(cfg)},
			{"users.xml", xmlgen.Users(cfg)},
		} {
			rows = append(rows, Fig6Row{File: gen.name, Size: size,
				Bytes: len(dom.XMLString(gen.doc.RootElement()))})
		}
	}
	return rows
}

// PrintFig6 renders the document-size table.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "fig6 — Fig. 6 (size of the input documents)")
	fmt.Fprintf(w, "%-14s%-8s%-10s%12s\n", "file", "size", "auth/book", "bytes")
	for _, r := range rows {
		apb := "-"
		if r.APB > 0 {
			apb = fmt.Sprintf("%d", r.APB)
		}
		fmt.Fprintf(w, "%-14s%-8d%-10s%12d\n", r.File, r.Size, apb, r.Bytes)
	}
	fmt.Fprintln(w)
}
