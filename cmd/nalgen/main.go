// Command nalgen generates the synthetic XML documents of the paper's
// evaluation (the ToXgene substitute) and writes them to a directory.
//
// Usage:
//
//	nalgen -size 1000 -authors 5 -out ./data
//	nalgen -preset 100k -dblp -out ./data    # size presets 10k / 100k / 1m
//	nalgen -size 10000 -binary -out ./data   # .nalb store files with stats
//	nalgen -size 10000 -zipf 1.5 -out ./data # zipfian-skewed key draws
//	nalgen -queries 50 -qseed 7 -out ./data  # plus a generated query mix
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nalquery/internal/dom"
	"nalquery/internal/qgen"
	"nalquery/internal/stats"
	"nalquery/internal/store"
	"nalquery/internal/xmlgen"
)

// presets maps the named measurement scales to document sizes.
var presets = map[string]int{"10k": 10_000, "100k": 100_000, "1m": 1_000_000}

func main() {
	var (
		size    = flag.Int("size", 1000, "number of books / bids")
		preset  = flag.String("preset", "", "size preset: 10k, 100k or 1m (overrides -size)")
		authors = flag.Int("authors", 2, "authors per book (2, 5 or 10 in the paper)")
		seed    = flag.Int64("seed", 42, "random seed")
		zipf    = flag.Float64("zipf", 0, "zipfian exponent (> 1) for skewed key draws; 0 = uniform")
		dblp    = flag.Bool("dblp", false, "also generate the DBLP-like document")
		binFmt  = flag.Bool("binary", false, "write the binary store format (.nalb, with measured statistics) instead of XML")
		queries = flag.Int("queries", 0, "also emit this many generated queries (queries.xq)")
		qseed   = flag.Int64("qseed", 1, "seed for the generated query mix")
		outDir  = flag.String("out", ".", "output directory")
	)
	flag.Parse()

	if *preset != "" {
		n, ok := presets[*preset]
		if !ok {
			fail(fmt.Errorf("unknown preset %q (want 10k, 100k or 1m)", *preset))
		}
		*size = n
	}
	cfg := xmlgen.DefaultConfig(*size)
	cfg.AuthorsPerBook = *authors
	cfg.Seed = *seed
	cfg.Zipf = *zipf

	docs := []*dom.Document{
		xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg),
		xmlgen.Users(cfg), xmlgen.Items(cfg), xmlgen.Bids(cfg),
	}
	if *dblp {
		docs = append(docs, xmlgen.DBLP(xmlgen.DBLPConfig{Seed: *seed, Publications: *size}))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	for _, d := range docs {
		path := filepath.Join(*outDir, d.URI)
		if *binFmt {
			path += ".nalb"
			// NALB2: the analyzer's statistics ride along, so a load skips
			// the measuring walk.
			if err := store.SaveFileStats(path, d, stats.Analyze(d)); err != nil {
				fail(err)
			}
		} else {
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			bw := bufio.NewWriter(f)
			if err := dom.WriteXML(bw, d.RootElement()); err != nil {
				fail(err)
			}
			if err := bw.Flush(); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
		info, _ := os.Stat(path)
		fmt.Printf("%-20s %8d bytes\n", filepath.Base(path), info.Size())
	}
	if *queries > 0 {
		if err := writeQueryMix(*outDir, *queries, *qseed); err != nil {
			fail(err)
		}
	}
}

// writeQueryMix emits a deterministic generated query mix against the
// use-case documents — a ready-made workload for nalsh/nalserved smoke
// runs or for replaying a fuzz seed outside the test harness. Queries are
// separated by a %%% line so shells and scripts can split them; each is
// prefixed with its index and generator seed for triage.
func writeQueryMix(outDir string, n int, seed int64) error {
	path := filepath.Join(outDir, "queries.xq")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	g := qgen.New(qgen.Config{Seed: seed, Externals: true})
	for i := 0; i < n; i++ {
		q := g.Query()
		fmt.Fprintf(f, "(: query %d, qseed %d :)\n%s\n", i, seed, q.Text)
		if len(q.Binds) > 0 {
			names := make([]string, 0, len(q.Binds))
			for name := range q.Binds {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(f, "(: binds:")
			for _, name := range names {
				fmt.Fprintf(f, " $%s=%v", name, q.Binds[name])
			}
			fmt.Fprintf(f, " :)\n")
		}
		if i != n-1 {
			fmt.Fprintln(f, "%%%")
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, _ := os.Stat(path)
	fmt.Printf("%-20s %8d bytes (%d queries, qseed %d)\n", filepath.Base(path), info.Size(), n, seed)
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "nalgen: %v\n", err)
	os.Exit(1)
}
