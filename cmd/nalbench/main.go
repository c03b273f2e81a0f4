// Command nalbench keeps the allocation trajectory BENCH_results.json: B/op
// and allocs/op of every plan of the paper's seven queries (Sec. 5) at
// document sizes 100 and 1000, and of the loader (experiment "load":
// Engine.LoadXMLString of bib.xml, which parses and rebuilds the document's
// statistics and indexes) at the same sizes, measured with
// testing.Benchmark, and gates it against a baseline (-diff). The file carries no wall-clock column: the
// Sec. 5 timings are the root package's BenchmarkQ* families (go test
// -bench), and performance claims are made with the benchmark/ harness.
//
// Usage:
//
//	nalbench                        # regenerate BENCH_results.json
//	nalbench -jsonfile out.json     # write the trajectory elsewhere
//	nalbench -diff base.json        # gate -jsonfile against a baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	nalquery "nalquery"
	"nalquery/internal/cli"
	"nalquery/internal/dom"
	"nalquery/internal/xmlgen"
)

// queries are the measured ids of nalquery.PaperQueries, in paper order.
var queries = []string{"q1", "q1dblp", "q2", "q3", "q4", "q5", "q6"}

// sizes are the measured document sizes: the paper's first two points,
// which keep the quadratic nested plans in CI range.
var sizes = []int{100, 1000}

// loadExperiment is the loader's row family: one plan, loadPlan, per size.
const (
	loadExperiment = "load"
	loadPlan       = "LoadXMLString bib.xml"
)

func main() {
	var (
		jsonFile  = flag.String("jsonfile", "BENCH_results.json", "trajectory file to write, or to check with -diff")
		diffBase  = flag.String("diff", "", "compare -jsonfile against this baseline BENCH json (e.g. saved from git show HEAD:BENCH_results.json) instead of measuring")
		threshold = flag.Float64("threshold", 10, "allowed allocs/op regression percentage for -diff")
		bThresh   = flag.Float64("bthreshold", 15, "allowed B/op regression percentage for -diff")
	)
	flag.Parse()

	var err error
	if *diffBase != "" {
		err = runDiff(*diffBase, *jsonFile, *threshold, *bThresh)
	} else {
		err = writeJSON(*jsonFile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nalbench: %v\n", err)
		os.Exit(1)
	}
}

// benchRecord is one row of the allocation trajectory (BENCH_results.json),
// tracked across commits. APB is the authors per book of the bib.xml of q1
// and of the load rows, the only rows whose document varies with it.
type benchRecord struct {
	Experiment  string `json:"experiment"`
	Plan        string `json:"plan"`
	Size        int    `json:"size"`
	APB         int    `json:"apb,omitempty"`
	BytesPerOp  int64  `json:"b_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// measures reports whether nalbench still produces the row — what -diff
// needs to tell a retired row from a truncated file: every plan of a
// measured query is measured, and so is every load row.
func measures(r benchRecord) bool {
	return slices.Contains(queries, r.Experiment) || r.Experiment == loadExperiment
}

// newEngine loads the documents of one measurement point: dblp.xml for
// q1dblp, the use-case documents at two authors per book for the rest.
func newEngine(id string, size int) *nalquery.Engine {
	e := nalquery.NewEngine()
	if id == "q1dblp" {
		e.LoadDBLPDocument(size)
	} else {
		e.LoadUseCaseDocuments(size, 2)
	}
	return e
}

// writeJSON measures every plan of every query, and the loader, at every
// size with testing.Benchmark and writes the records as JSON.
func writeJSON(path string) error {
	var recs []benchRecord
	report := func(rec benchRecord) {
		recs = append(recs, rec)
		fmt.Fprintf(os.Stderr, "%s/plan=%s/size=%d: %d B/op %d allocs/op\n",
			rec.Experiment, rec.Plan, rec.Size, rec.BytesPerOp, rec.AllocsPerOp)
	}
	for _, id := range queries {
		apb := 0
		if id == "q1" {
			apb = 2
		}
		for _, size := range sizes {
			q, err := newEngine(id, size).Compile(nalquery.PaperQueries[id])
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			for _, p := range q.Plans() {
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := cli.RunPlan(q, p.Name); err != nil {
							b.Fatal(err)
						}
					}
				})
				report(benchRecord{Experiment: id, Plan: p.Name, Size: size, APB: apb,
					BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()})
			}
		}
	}
	for _, size := range sizes {
		r, err := benchLoad(size)
		if err != nil {
			return err
		}
		report(benchRecord{Experiment: loadExperiment, Plan: loadPlan, Size: size, APB: 2,
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()})
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// benchLoad measures Engine.LoadXMLString of bib.xml at one size (two
// authors per book) into an engine that already holds it, as an upload
// replaces a document: the parse, the statistics, the indexes and the cost
// model the load rebuilds.
func benchLoad(size int) (testing.BenchmarkResult, error) {
	e := nalquery.NewEngine()
	xml := dom.XMLString(xmlgen.Bib(xmlgen.DefaultConfig(size)).Root)
	if err := e.LoadXMLString("bib.xml", xml); err != nil {
		return testing.BenchmarkResult{}, fmt.Errorf("load bib.xml at size %d: %w", size, err)
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.LoadXMLString("bib.xml", xml); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

// runDiff compares a baseline BENCH json (typically the committed
// trajectory, saved from git show) against the current one and fails when
// allocs/op or B/op regress beyond their threshold percentages on any
// measured plan.
func runDiff(basePath, newPath string, threshold, bThreshold float64) error {
	load := func(path string) ([]benchRecord, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var recs []benchRecord
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return recs, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	key := func(r benchRecord) string {
		return fmt.Sprintf("%s/%s/size=%d/apb=%d", r.Experiment, r.Plan, r.Size, r.APB)
	}
	baseBy := make(map[string]benchRecord, len(base))
	for _, r := range base {
		baseBy[key(r)] = r
	}
	// pct reports the percentage change; a regression from an
	// allocation-free baseline has no finite percentage and is always
	// beyond threshold.
	pct := func(old, new int64) float64 {
		if old == 0 {
			if new > 0 {
				return math.Inf(1)
			}
			return 0
		}
		return 100 * float64(new-old) / float64(old)
	}
	var failures []string
	fmt.Printf("%-52s %12s %12s\n", "benchmark", "Δallocs/op", "ΔB/op")
	for _, r := range cur {
		b, ok := baseBy[key(r)]
		if !ok {
			fmt.Printf("%-52s %12s %12s\n", key(r), "new", "new")
			continue
		}
		delete(baseBy, key(r))
		da := pct(b.AllocsPerOp, r.AllocsPerOp)
		db := pct(b.BytesPerOp, r.BytesPerOp)
		fmt.Printf("%-52s %+11.1f%% %+11.1f%%\n", key(r), da, db)
		if da > threshold {
			failures = append(failures,
				fmt.Sprintf("%s: allocs/op %d → %d (%+.1f%% > %.1f%%)",
					key(r), b.AllocsPerOp, r.AllocsPerOp, da, threshold))
		}
		if db > bThreshold {
			failures = append(failures,
				fmt.Sprintf("%s: B/op %d → %d (%+.1f%% > %.1f%%)",
					key(r), b.BytesPerOp, r.BytesPerOp, db, bThreshold))
		}
	}
	// A baseline row nalbench no longer measures is retired and passes. A
	// row that vanished although it is still measured is a failure: a
	// truncated results file (e.g. an interrupted regeneration) must not
	// pass for a full one.
	gone := make([]string, 0, len(baseBy))
	for k := range baseBy {
		gone = append(gone, k)
	}
	slices.Sort(gone)
	for _, k := range gone {
		if !measures(baseBy[k]) {
			fmt.Printf("%-52s %12s %12s\n", k, "retired", "retired")
			continue
		}
		fmt.Printf("%-52s %12s %12s\n", k, "gone", "gone")
		failures = append(failures, fmt.Sprintf("%s: missing from %s", k, newPath))
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark trajectory regressions (threshold %.1f%%):\n  %s",
			threshold, strings.Join(failures, "\n  "))
	}
	return nil
}
