package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsRunSmall(t *testing.T) {
	for _, exp := range All() {
		ms, err := Run(exp, Options{Sizes: []int{60}})
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		if len(ms) < 2 {
			t.Fatalf("%s: expected several plans, got %d", exp.ID, len(ms))
		}
		// The nested plan must be present and must not be the fastest label
		// set; every plan produced output of identical length.
		var nested, best Measurement
		for _, m := range ms {
			if m.Plan == "nested" {
				nested = m
			}
			best = m
			if m.Output == 0 && exp.ID != "q4" {
				t.Errorf("%s/%s produced no output", exp.ID, m.Plan)
			}
		}
		if nested.Plan == "" {
			t.Fatalf("%s: no nested plan", exp.ID)
		}
		if nested.Output != best.Output {
			t.Errorf("%s: output size differs: nested=%d %s=%d", exp.ID, nested.Output, best.Plan, best.Output)
		}
		if nested.Stats.NestedEvals == 0 {
			t.Errorf("%s: nested plan must perform nested-loop iterations", exp.ID)
		}
		if best.Plan != "nested" && best.Stats.NestedEvals != 0 {
			t.Errorf("%s: unnested plan %s performed nested evaluations", exp.ID, best.Plan)
		}
	}
}

func TestNestedSizeCap(t *testing.T) {
	exp, _ := Find("q6")
	ms, err := Run(exp, Options{Sizes: []int{50, 120}, MaxNestedSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Plan == "nested" && m.Size > 60 {
			t.Fatalf("nested plan must be capped at 60, ran at %d", m.Size)
		}
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Fatalf("Find must reject unknown ids")
	}
	if exp, ok := Find("q3"); !ok || exp.ID != "q3" {
		t.Fatalf("Find q3 failed")
	}
}

func TestPrintTable(t *testing.T) {
	exp, _ := Find("q6")
	ms, err := Run(exp, Options{Sizes: []int{40}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintTable(&sb, exp, ms)
	out := sb.String()
	for _, want := range []string{"q6", "nested", "grouping", "Plan"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig6(t *testing.T) {
	rows := Fig6([]int{50}, []int{2, 5})
	if len(rows) != 7 { // 2 bib rows + 5 other documents
		t.Fatalf("fig6 rows: %d", len(rows))
	}
	var bib2, bib5 int
	for _, r := range rows {
		if r.Bytes == 0 {
			t.Errorf("empty document %s", r.File)
		}
		if r.File == "bib.xml" && r.APB == 2 {
			bib2 = r.Bytes
		}
		if r.File == "bib.xml" && r.APB == 5 {
			bib5 = r.Bytes
		}
	}
	if bib5 <= bib2 {
		t.Errorf("more authors per book must grow the document: %d vs %d", bib2, bib5)
	}
	var sb strings.Builder
	PrintFig6(&sb, rows)
	if !strings.Contains(sb.String(), "bib.xml") {
		t.Errorf("fig6 print:\n%s", sb.String())
	}
}
