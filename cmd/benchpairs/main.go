// Command benchpairs measures a change against a parent commit the way a
// performance claim has to be measured: alternating pairs of runs of the
// benchmark/ harness, the same seed on both sides of a pair, and a verdict per
// end-to-end metric by the rule benchmark/README.md and BENCHMARK.json state.
//
// Usage (from the repository root; `make bench-pairs WORKLOAD=adhoc_compile`):
//
//	benchpairs -workload adhoc_compile [-parent HEAD] [-pairs 10]
//
// The parent's committed files are extracted into a temporary directory; the
// change is the working tree the tool runs in. Each run is BENCHMARK.json's
// command with --workload W --seed <pair number> --seconds <run_seconds>
// --trace 0, and its last output line is the report. Per metric the table
// gives both medians, both quartile pairs, wins/ties/losses over the pairs,
// and one of:
//
//	unresolved    a side's interquartile range is wider than the bound, which
//	              is a fraction of the parent's median: the runs cannot tell,
//	              whatever the medians say. A higher-is-better metric that
//	              gains k-fold keeps its relative spread and so multiplies its
//	              interquartile range by k against a bound that stays put
//	gain          the change wins at least nine tenths of at least ten pairs
//	              and the medians differ by more than the parent's own
//	              interquartile range
//	worse         the change's median is worse than the parent's by more than
//	              the metric's bound
//	within bound  none of these
//
// Below the table, the timing metrics as the clock read them (the run's
// "as the clock read them" line, before the harness converts them to its
// machine-speed reference) get their medians and quartiles too, without a
// verdict: a shift in the reference shows as a gap between the two tables.
//
// A run that fails, or reports wrong or failed operations, ends the
// measurement with an error. Ten pairs of 20 s runs take about seven minutes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// declared is the part of BENCHMARK.json the measurement follows.
type declared struct {
	Command    []string       `json:"command"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type workloadDecl struct {
	Name string `json:"name"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`

	clock map[string]float64 // the timing metrics as the clock read them
}

// clockLine marks the line of a run's output that holds its timing metrics
// as the clock read them, as name-value pairs.
const clockLine = "as the clock read them:"

func main() {
	workload := flag.String("workload", "", "workload to run (a name BENCHMARK.json declares)")
	parent := flag.String("parent", "HEAD", "commit the change is measured against")
	pairs := flag.Int("pairs", 10, "number of parent/change pairs")
	flag.Parse()
	if err := measure(*workload, *parent, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func measure(workload, parent string, pairs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if !slices.Contains(decl.Workloads, workloadDecl{workload}) {
		return fmt.Errorf("BENCHMARK.json declares no workload %q", workload)
	}
	if pairs < 1 {
		return fmt.Errorf("-pairs %d: need at least one", pairs)
	}

	parentDir, err := os.MkdirTemp("", "benchpairs-parent-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	extract := exec.Command("bash", "-o", "pipefail", "-c", `git archive "$0" | tar -x -C "$1"`, parent, parentDir)
	if out, err := extract.CombinedOutput(); err != nil {
		return fmt.Errorf("extracting %s: %v\n%s", parent, err, out)
	}

	sides := [2]string{"parent", "change"}
	dirs := [2]string{parentDir, "."}
	values := map[string]*[2][]float64{}
	for _, m := range decl.EndToEnd {
		values[m.Name] = &[2][]float64{}
	}
	clock := map[string]*[2][]float64{}
	for pair := 1; pair <= pairs; pair++ {
		first := (pair + 1) % 2 // odd pairs run the parent first, even ones the change
		for _, side := range [2]int{first, 1 - first} {
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", pair, pairs, sides[side])
			rep, err := run(decl, dirs[side], workload, pair)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", pair, sides[side], err)
			}
			for _, m := range decl.EndToEnd {
				v, ok := rep.Metrics[m.Name]
				if !ok {
					return fmt.Errorf("pair %d, %s: the report has no %s", pair, sides[side], m.Name)
				}
				values[m.Name][side] = append(values[m.Name][side], v.Value)
			}
			for name, v := range rep.clock {
				if clock[name] == nil {
					clock[name] = &[2][]float64{}
				}
				clock[name][side] = append(clock[name][side], v)
			}
		}
	}

	fmt.Printf("%s, %d pairs against %s, %d s a run\n", workload, pairs, parent, decl.RunSeconds)
	fmt.Printf("%-20s %12s %25s %12s %25s %8s %9s  %s\n", "metric",
		"parent", "[q1, q3]", "change", "[q1, q3]", "gap", "w/t/l", "verdict")
	for _, m := range decl.EndToEnd {
		p, c := values[m.Name][0], values[m.Name][1]
		sign := 1.0 // gap > 0 means the change is better
		if m.Better == "lower" {
			sign = -1
		}
		var wins, ties, losses int
		for i := range p {
			switch d := sign * (c[i] - p[i]); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			default:
				ties++
			}
		}
		pq, cq := quartiles(p), quartiles(c)
		gap := sign * (cq[1] - pq[1])
		rel := gap / math.Abs(pq[1])
		spread := max(pq[2]-pq[0], cq[2]-cq[0]) / math.Abs(pq[1])
		verdict := "within bound"
		switch {
		case spread > m.Bound:
			verdict = "unresolved"
		case wins*10 >= 9*pairs && gap > pq[2]-pq[0] && pairs >= 10:
			verdict = "gain"
		case -rel > m.Bound:
			verdict = "worse"
		}
		fmt.Printf("%-20s %12.4f %25s %12.4f %25s %+7.1f%% %9s  %s\n", m.Name,
			pq[1], fmt.Sprintf("[%.4f, %.4f]", pq[0], pq[2]),
			cq[1], fmt.Sprintf("[%.4f, %.4f]", cq[0], cq[2]),
			100*rel, fmt.Sprintf("%d/%d/%d", wins, ties, losses), verdict)
	}
	if len(clock) > 0 {
		fmt.Println(clockLine)
	}
	for _, name := range slices.Sorted(maps.Keys(clock)) {
		p, c := clock[name][0], clock[name][1]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		sign := 1.0 // as in the table above: gap > 0 means the change is better
		for _, m := range decl.EndToEnd {
			if m.Name == name && m.Better == "lower" {
				sign = -1
			}
		}
		pq, cq := quartiles(p), quartiles(c)
		fmt.Printf("%-20s %12.4f %25s %12.4f %25s %+7.1f%%\n", name,
			pq[1], fmt.Sprintf("[%.4f, %.4f]", pq[0], pq[2]),
			cq[1], fmt.Sprintf("[%.4f, %.4f]", cq[0], cq[2]), 100*sign*(cq[1]-pq[1])/math.Abs(pq[1]))
	}
	return nil
}

// run executes the declared command once in dir and decodes its last line.
func run(decl declared, dir, workload string, seed int) (*report, error) {
	args := append(slices.Clone(decl.Command[1:]), "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(decl.RunSeconds), "--trace", "0")
	cmd := exec.Command(decl.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("the run's last line is not a report: %w", err)
	}
	if !rep.Correct || rep.Failed > 0 {
		return nil, fmt.Errorf("correct=%v, %d of %d operations failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	for _, line := range lines {
		if _, pairs, ok := strings.Cut(line, clockLine); ok {
			rep.clock = clockValues(pairs)
		}
	}
	return &rep, nil
}

// clockValues reads the name-value pairs that follow clockLine; a pair whose
// value is not a number is skipped.
func clockValues(pairs string) map[string]float64 {
	f := strings.Fields(pairs)
	vals := make(map[string]float64, len(f)/2)
	for i := 0; i+1 < len(f); i += 2 {
		if v, err := strconv.ParseFloat(f[i+1], 64); err == nil {
			vals[f[i]] = v
		}
	}
	return vals
}

// quartiles returns the first quartile, the median and the third quartile,
// interpolating linearly between the sorted values.
func quartiles(v []float64) [3]float64 {
	s := slices.Sorted(slices.Values(v))
	var q [3]float64
	for i, f := range [3]float64{0.25, 0.5, 0.75} {
		pos := f * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}
