package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiffRetiredVersusTruncated: a baseline row nalbench no longer measures
// — of a retired family — is retired and passes; a row it still measures
// missing is a truncated file and fails.
func TestDiffRetiredVersusTruncated(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []benchRecord) string {
		data, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	q1 := benchRecord{Experiment: "q1", Plan: "grouping", Size: 100, APB: 2, BytesPerOp: 1000, AllocsPerOp: 10}
	q1nested := benchRecord{Experiment: "q1", Plan: "nested", Size: 100, APB: 2, BytesPerOp: 9000, AllocsPerOp: 90}
	joins := benchRecord{Experiment: "joins", Plan: "grace+sort", Size: 100, BytesPerOp: 500, AllocsPerOp: 5}
	mu := benchRecord{Experiment: "grouping", Plan: "gamma-mu-roundtrip", Size: 100, BytesPerOp: 700, AllocsPerOp: 7}
	unary := benchRecord{Experiment: "grouping", Plan: "unary-gamma", Size: 100, BytesPerOp: 600, AllocsPerOp: 6}
	cur := write("cur.json", []benchRecord{q1, q1nested})

	err := runDiff(write("retired.json", []benchRecord{q1, q1nested, joins, mu, unary}), cur, 10, 15)
	if err != nil {
		t.Errorf("retired rows must pass: %v", err)
	}
	err = runDiff(write("full.json", []benchRecord{q1, q1nested}), write("truncated.json", []benchRecord{q1}), 10, 15)
	if err == nil || !strings.Contains(err.Error(), "q1/nested/size=100/apb=2: missing") {
		t.Errorf("a row missing from a measured experiment must fail, got %v", err)
	}
	load := benchRecord{Experiment: loadExperiment, Plan: loadPlan, Size: 1000, APB: 2, BytesPerOp: 3000, AllocsPerOp: 30}
	err = runDiff(write("load.json", []benchRecord{q1, load}), write("noload.json", []benchRecord{q1}), 10, 15)
	if err == nil || !strings.Contains(err.Error(), "load/"+loadPlan+"/size=1000/apb=2: missing") {
		t.Errorf("a load row missing must fail, got %v", err)
	}
}
