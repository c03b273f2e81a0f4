// Command nalbench regenerates the paper's evaluation tables (Sec. 5) and
// the document-size figure (Fig. 6), and keeps the allocation trajectory
// BENCH_results.json (-json, gated by -diff). Performance claims are made
// with the benchmark/ harness, not with this command's wall-clock columns.
//
// Usage:
//
//	nalbench                        # all experiments, default sizes, nested capped at 1000
//	nalbench -exp q1                # one experiment
//	nalbench -exp fig6              # the document-size figure
//	nalbench -sizes 100,1000        # override measurement points
//	nalbench -full                  # run the nested plans at every size
//	                                # (the nested plan needs minutes at 10000,
//	                                #  like the paper's own numbers)
//	nalbench -repeat 3              # average over repetitions
//	nalbench -json                  # regenerate BENCH_results.json (B/op, allocs/op)
//	nalbench -diff base.json        # gate BENCH_results.json against a baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nalquery/internal/cli"
	"nalquery/internal/experiments"
)

func main() {
	var (
		expID     = flag.String("exp", "all", "experiment id (q1, q1dblp, q2..q6, fig6, all)")
		sizes     = flag.String("sizes", "", "comma-separated document sizes (default: the paper's 100,1000,10000)")
		full      = flag.Bool("full", false, "run the quadratic nested plans at every size")
		repeat    = flag.Int("repeat", 1, "average over this many runs")
		jsonOut   = flag.Bool("json", false, "emit machine-readable per-benchmark results (B/op, allocs/op)")
		jsonFile  = flag.String("jsonfile", "BENCH_results.json", "output path for -json")
		diffBase  = flag.String("diff", "", "compare -jsonfile against this baseline BENCH json (e.g. saved from git show HEAD:BENCH_results.json) instead of measuring")
		threshold = flag.Float64("threshold", 10, "allowed allocs/op regression percentage for -diff")
		bThresh   = flag.Float64("bthreshold", 15, "allowed B/op regression percentage for -diff")
	)
	flag.Parse()

	if *diffBase != "" {
		if err := runDiff(*diffBase, *jsonFile, *threshold, *bThresh); err != nil {
			fmt.Fprintf(os.Stderr, "nalbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Options{Repeat: *repeat}
	if !*full {
		opts.MaxNestedSize = 1000
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "nalbench: bad size %q\n", s)
				os.Exit(2)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}

	if *jsonOut {
		if err := runJSON(*jsonFile, *expID, opts); err != nil {
			fmt.Fprintf(os.Stderr, "nalbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	switch *expID {
	case "fig6":
		experiments.PrintFig6(os.Stdout, experiments.Fig6(opts.Sizes, nil))
		return
	case "all":
		experiments.PrintFig6(os.Stdout, experiments.Fig6(opts.Sizes, nil))
		for _, exp := range experiments.All() {
			runOne(exp, opts)
		}
		return
	default:
		exp, ok := experiments.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "nalbench: unknown experiment %q\n", *expID)
			os.Exit(2)
		}
		runOne(exp, opts)
	}
}

// benchRecord is one machine-readable measurement of the -json mode: the
// allocation trajectory file (BENCH_results.json) tracked across PRs. It
// carries no wall-clock column; timings are the benchmark/ harness's job.
type benchRecord struct {
	Experiment  string `json:"experiment"`
	Plan        string `json:"plan"`
	Size        int    `json:"size"`
	APB         int    `json:"apb,omitempty"`
	BytesPerOp  int64  `json:"b_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// measures reports whether -json still produces the row — what -diff needs
// to tell a retired row from a truncated file: a paper table measures every
// plan its query compiles to.
func measures(r benchRecord) bool {
	_, ok := experiments.Find(r.Experiment)
	return ok
}

// runJSON measures every plan of the selected experiments with
// testing.Benchmark and writes the records as JSON.
func runJSON(path, expID string, opts experiments.Options) error {
	exps := experiments.All()
	if expID != "all" {
		exp, ok := experiments.Find(expID)
		if !ok {
			// fig6 has no per-plan benchmarks.
			return fmt.Errorf("-json measures query plans only (q1, q1dblp, q2..q6, all); %q has no plan benchmarks", expID)
		}
		exps = []experiments.Experiment{exp}
	}
	sizes := opts.Sizes
	if len(sizes) == 0 {
		// Unlike the text tables, -json defaults to the two sizes that keep
		// a full sweep in CI range; say so instead of silently shrinking the
		// coverage the -sizes help text promises.
		sizes = []int{100, 1000}
		fmt.Fprintf(os.Stderr, "nalbench: -json default sizes %v (pass -sizes to override, e.g. -sizes 100,1000,10000)\n", sizes)
	}
	// testing.Benchmark self-calibrates its iteration count, and varying
	// experiments are measured at a single authors-per-book point.
	if opts.Repeat > 1 {
		fmt.Fprintln(os.Stderr, "nalbench: -json ignores -repeat (testing.Benchmark picks iteration counts)")
	}
	fmt.Fprintln(os.Stderr, "nalbench: -json measures authors-per-book=2 for varying experiments")
	var recs []benchRecord
	measure := func(rec benchRecord, run func() error) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		rec.BytesPerOp, rec.AllocsPerOp = r.AllocedBytesPerOp(), r.AllocsPerOp()
		recs = append(recs, rec)
		fmt.Fprintf(os.Stderr, "%s/plan=%s/size=%d: %d B/op %d allocs/op\n",
			rec.Experiment, rec.Plan, rec.Size, rec.BytesPerOp, rec.AllocsPerOp)
	}
	for _, exp := range exps {
		for _, size := range sizes {
			apb := 0
			if exp.VaryAuthors {
				apb = 2
			}
			eng := experiments.NewEngine(exp, size, apb)
			q, err := eng.Compile(exp.Query)
			if err != nil {
				return fmt.Errorf("%s: %w", exp.ID, err)
			}
			for _, p := range q.Plans() {
				if p.Name == "nested" && opts.MaxNestedSize > 0 && size > opts.MaxNestedSize {
					continue
				}
				plan := p.Name
				measure(benchRecord{Experiment: exp.ID, Plan: plan, Size: size, APB: apb}, func() error {
					_, _, err := cli.RunPlan(q, plan)
					return err
				})
			}
		}
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
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
	// truncated results file (e.g. a partial -exp regeneration) must not
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

func runOne(exp experiments.Experiment, opts experiments.Options) {
	ms, err := experiments.Run(exp, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nalbench: %v\n", err)
		os.Exit(1)
	}
	experiments.PrintTable(os.Stdout, exp, ms)
}
