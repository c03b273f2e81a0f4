package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs every workload at about 1/100 scale, untraced on two seeds
// and traced on one: no operation may fail, and the metric names must be
// exactly the ones BENCHMARK.json declares. The traced run itself fails when
// nalquery.compile_coverage leaves 0.8-1.25, on every workload.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer, workloads []string
	for _, e := range decl.EndToEnd {
		endToEnd = append(endToEnd, e.Name)
	}
	for _, p := range decl.PerLayer {
		perLayer = append(perLayer, p.Name)
	}
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	if !slices.Equal(workloads, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", workloads, workloadNames)
	}
	names := func(rep *report) []string {
		var out []string
		for n := range rep.Result.Metrics {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 1, scale: 0.01, out: t.TempDir()}
			for _, seed := range []int64{1, 2} {
				cfg.seed = seed
				rep, err := measure(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
					t.Fatalf("seed %d: %d of %d operations failed: %s", seed, rep.Result.Failed, rep.Result.Attempted, rep.FirstFail)
				}
				if got := names(rep); !slices.Equal(got, endToEnd) {
					t.Fatalf("seed %d: end-to-end metrics %v, declared %v", seed, got, endToEnd)
				}
			}
			a, err := generate(w, 1, cfg.scale, cfg.out)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 2, cfg.scale, cfg.out)
			if err != nil {
				t.Fatal(err)
			}
			if a.mainXML == b.mainXML {
				t.Fatal("seeds 1 and 2 generate the same document")
			}
			cfg.seed = 1
			rep, err := traced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.Failed != 0 {
				t.Fatalf("traced: %d operations failed: %s", rep.Result.Failed, rep.FirstFail)
			}
			if got := names(rep); !slices.Equal(got, perLayer) {
				t.Fatalf("per-layer metrics %v, declared %v", got, perLayer)
			}
		})
	}
}
