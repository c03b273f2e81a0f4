package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
)

// declared is the part of BENCHMARK.json the self-check compares against.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func quartileSpread(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN()
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// selfCheck is the A/A evidence: two sets of runs of this same binary, the
// workloads interleaved so that machine drift hits all alike, `runs` seeds
// per workload and set (with -workload, that workload alone). It prints, per
// workload and end-to-end metric, both medians and their gap beside the
// declared bound, then every run's value, and returns non-zero when a gap
// exceeds its bound: a bound is compared with a difference of medians. Each
// set's quartile spread is printed beside them as information; it is what
// sizes the bounds. Under each timing metric the same columns are printed for
// the values as the clock read them, before the conversion to the reference
// speed.
func selfCheck(cfg config, runs int) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return 1
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fail(err)
	}
	if cfg.workload != "" {
		decl.Workloads = slices.DeleteFunc(decl.Workloads, func(w struct{ Name string }) bool { return w.Name != cfg.workload })
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < runs; run++ {
			for _, w := range decl.Workloads {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(run), 10),
					"-seconds", fmt.Sprint(cfg.seconds))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fail(fmt.Errorf("%s: %w", w.Name, err))
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fail(fmt.Errorf("%s: last line: %w", w.Name, err))
				}
				if res.Failed > 0 {
					return fail(fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted))
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				// The timing metrics as the clock read them are in the report
				// the run just left.
				var rep report
				b, err := os.ReadFile(filepath.Join(cfg.out, "result-"+w.Name+".json"))
				if err == nil {
					err = json.Unmarshal(b, &rep)
				}
				if err != nil {
					return fail(fmt.Errorf("%s: report: %w", w.Name, err))
				}
				for name, v := range rep.Raw {
					values[set][w.Name]["raw "+name] = append(values[set][w.Name]["raw "+name], v)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s done\n", set+1, run+1, w.Name)
			}
		}
	}
	fmt.Printf("%-14s %-20s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median 1", "median 2", "gap", "spread 1", "spread 2", "bound")
	status := 0
	for _, w := range decl.Workloads {
		for _, e := range decl.EndToEnd {
			a, b := values[0][w.Name][e.Name], values[1][w.Name][e.Name]
			gap := math.Abs(median(b)-median(a)) / median(a)
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := ""
			if gap > e.Bound {
				verdict, status = "  EXCEEDS", 1
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				w.Name, e.Name, median(a), median(b), 100*gap, 100*sa, 100*sb, 100*e.Bound, verdict)
			if runs > 1 {
				fmt.Printf("    set 1 by seed: %.5g\n    set 2 by seed: %.5g\n", a, b)
			}
			if a, b := values[0][w.Name]["raw "+e.Name], values[1][w.Name]["raw "+e.Name]; a != nil {
				fmt.Printf("%-14s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%%\n", "", "  as the clock read", median(a), median(b),
					100*math.Abs(median(b)-median(a))/median(a), 100*quartileSpread(a), 100*quartileSpread(b))
			}
		}
	}
	return status
}
