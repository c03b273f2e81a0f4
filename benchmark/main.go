// Command benchmark is the repository's one performance harness: four named
// workloads, seven end-to-end metrics measured untraced, and a separate traced
// run that yields the per-layer metrics. BENCHMARK.json at the repository root
// declares the names; README.md beside this file defines them.
//
//	bash benchmark/run.sh --workload paper_plans --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a run leaves in the output directory: the result plus the
// conditions it was measured under.
type report struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WallS      float64 `json:"wall_s"`
	// ReferenceMs is the median time of the machine-speed reference over the
	// run, and Raw the timing metrics as the clock read them, before they were
	// converted to the reference speed.
	ReferenceMs float64            `json:"reference_ms,omitempty"`
	Raw         map[string]float64 `json:"raw,omitempty"`
	SetupRuns   int                `json:"setup_runs"`        // timed cold starts
	Rounds      int                `json:"rounds"`            // timed
	Samples     map[string]int     `json:"samples_per_class"` // timed and successful
	FirstFail   string             `json:"first_failure,omitempty"`
	Result      result             `json:"result"`
}

// config is one run's conditions.
type config struct {
	workload string
	seed     int64
	seconds  float64 // of timed rounds; 0 = the minimum number of rounds
	scale    float64 // input size as a share of the declared size: 1, and about 1/100 in the smoke test
	out      string  // directory for traces, reports and scratch files
}

const (
	// setupRuns is the least number of timed cold starts; one more runs first
	// and is discarded. Where a cold start takes tens of milliseconds, five
	// of them give a median that moves by a fifth from run to run, so between
	// the rounds cold starts are given setupShare of the time the rounds take.
	setupRuns  = 5
	setupShare = 0.1
	minRounds  = 3
	outDir     = "benchmark/out"
	// p95Samples is how many samples a class needs for ten to lie beyond its
	// 95th percentile; the report says which classes have fewer.
	p95Samples = 200
)

// measure is the untraced run: the seven end-to-end metrics.
func measure(cfg config) (*report, error) {
	start := time.Now()
	in, cleanup, err := begin(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	out := newCapture()
	// The first cold start is the discarded one, and the instance the loop
	// runs against. The timed ones are spread over the run, between the
	// rounds and beside that instance, so that they see the same minutes of
	// the machine as the rounds and the reference do.
	refs := []float64{reference()}
	inst, err := coldStart(in, out)
	if err != nil {
		return nil, err
	}
	heap := heapAllocMiB()
	var setups []float64
	spent := 0.0
	cold := func() error {
		runtime.GC()
		t0 := time.Now()
		if _, err := coldStart(in, out); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += time.Since(t0).Seconds()
		return nil
	}

	l := newLoop(in, inst, cfg.seed, out)
	l.refs = refs
	err = l.run(cfg.seconds, func(elapsed float64) error {
		for spent < setupShare*elapsed {
			if err := cold(); err != nil {
				return err
			}
		}
		return nil
	})
	for err == nil && len(setups) < setupRuns {
		err = cold()
	}
	if err = cmp.Or(err, l.cacheErr); err != nil {
		return nil, err
	}

	ops := float64(l.timedOps)
	setup, p50, p95, rate := median(setups), l.quantile(0.50), l.quantile(0.95), l.throughput()
	speed := refNominal / median(l.refs) // reference seconds per measured second
	rep := newReport(cfg, false, in, l)
	rep.SetupRuns = len(setups)
	rep.ReferenceMs = 1e3 * median(l.refs)
	rep.Raw = map[string]float64{"setup_s": setup, "lat_p50_ms": p50, "lat_p95_ms": p95, "throughput_ops_s": rate}
	rep.Result.Metrics = map[string]metric{
		"setup_s":             {setup * speed, "s"},
		"lat_p50_ms":          {p50 * speed, "ms"},
		"lat_p95_ms":          {p95 * speed, "ms"},
		"throughput_ops_s":    {rate / speed, "1/s"},
		"mallocs_per_op":      {float64(l.mallocs) / ops, "count"},
		"alloc_kb_per_op":     {float64(l.allocated) / 1024 / ops, "KiB"},
		"heap_after_setup_mb": {heap, "MiB"},
	}
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}

func newReport(cfg config, traced bool, in *inputs, l *loop) *report {
	rep := &report{Workload: cfg.workload, Traced: traced, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Rounds: len(l.rounds), Samples: map[string]int{}, FirstFail: l.firstFail,
		Result: result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed}}
	for c, name := range in.classes {
		rep.Samples[name] = len(l.samples(c))
	}
	return rep
}

// emit prints the run for a reader, leaves the report in the output
// directory, and prints the result as the last line.
func emit(rep *report, out string) error {
	fmt.Printf("workload %s  seed %d  scale %g  traced %v  rounds %d  wall %.1fs  %s  nproc %d  GOMAXPROCS %d\n",
		rep.Workload, rep.Seed, rep.Scale, rep.Traced, rep.Rounds, rep.WallS, rep.GoVersion, rep.NProc, rep.GOMAXPROCS)
	if !rep.Traced {
		fmt.Printf("  cold starts %d\n", rep.SetupRuns)
		fmt.Printf("  machine-speed reference %.2f ms (nominal %.0f ms); as the clock read them:", rep.ReferenceMs, 1e3*refNominal)
		for _, n := range slices.Sorted(maps.Keys(rep.Raw)) {
			fmt.Printf("  %s %.4f", n, rep.Raw[n])
		}
		fmt.Println()
	}
	for _, c := range slices.Sorted(maps.Keys(rep.Samples)) {
		note := ""
		if rep.Samples[c] < p95Samples {
			note = fmt.Sprintf("  (under %d: fewer than ten samples lie beyond this class's p95)", p95Samples)
		}
		fmt.Printf("  samples %-14s %d%s\n", c, rep.Samples[c], note)
	}
	for _, n := range slices.Sorted(maps.Keys(rep.Result.Metrics)) {
		m := rep.Result.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	if rep.FirstFail != "" {
		fmt.Printf("  first failure: %s\n", rep.FirstFail)
	}
	kind := "result"
	if rep.Traced {
		kind = "result-traced"
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, kind+"-"+rep.Workload+".json"), full, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func main() {
	cfg := config{scale: 1, out: outDir}
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics in place of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "A/A evidence: run every workload in two alternating sets and compare with the declared bounds")
	runs := flag.Int("runs", 1, "with -selfcheck: runs per workload and set, each with its own seed")
	flag.Parse()

	if *selfcheck {
		os.Exit(selfCheck(cfg, *runs))
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = traced(cfg)
	} else {
		rep, err = measure(cfg)
	}
	if err == nil {
		err = emit(rep, cfg.out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
