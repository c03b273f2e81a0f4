package nalquery

import (
	"strings"
	"testing"
)

// TestStreamingMatchesMaterialized runs every plan of every paper query
// through the slot-based iterator engine and the definitional materializing
// evaluator and requires byte-identical output.
func TestStreamingMatchesMaterialized(t *testing.T) {
	e := tinyEngine(t)
	e.LoadDBLPDocument(40)
	for id, text := range PaperQueries {
		q, err := e.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, p := range q.Plans() {
			mat, _, err := execute(q, p.Name, WithReferenceEngine())
			if err != nil {
				t.Fatalf("%s/%s: %v", id, p.Name, err)
			}
			str, _, err := execute(q, p.Name)
			if err != nil {
				t.Fatalf("%s/%s streaming: %v", id, p.Name, err)
			}
			if mat != str {
				t.Errorf("%s/%s: streaming output differs\nmaterialized: %.120s\nstreaming:    %.120s",
					id, p.Name, mat, str)
			}
		}
	}
}

func TestStreamingUnknownPlan(t *testing.T) {
	e := tinyEngine(t)
	q, err := e.Compile(QueryQ3Existential)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execute(q, "nope"); err == nil {
		t.Fatalf("unknown plan must error")
	}
}

// TestArithmeticEndToEnd exercises the arithmetic extension through the
// full pipeline: a price threshold computed with div.
func TestArithmeticEndToEnd(t *testing.T) {
	e := tinyEngine(t)
	q, err := e.Compile(`
let $d := doc("bib.xml")
for $b in $d//book
let $p := $b/price
where decimal($p) * 2 > 100 and decimal($p) - 1 < 128
return <x>{ $b/title }</x>`)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	// Prices: 65.95, 65.95, 39.95, 129.95 → ×2 > 100 keeps the 65.95s and
	// 129.95; −1 < 128 removes 129.95 (128.95 ≥ 128).
	want := "<x><title>TCP/IP Illustrated</title></x><x><title>Advanced Unix</title></x>"
	if out != want {
		t.Fatalf("arithmetic query:\ngot:  %s\nwant: %s", out, want)
	}
}

// TestCostModelPicksUnnested asserts the cost-based default plan choice.
func TestCostModelPicksUnnested(t *testing.T) {
	e := NewEngine()
	e.LoadUseCaseDocuments(200, 2)
	for id, text := range PaperQueries {
		if strings.Contains(id, "dblp") {
			continue
		}
		q, err := e.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		best, err := q.Plan("")
		if err != nil {
			t.Fatal(err)
		}
		if best.Name == "nested" {
			t.Errorf("%s: cost model chose the nested plan (cost %g)", id, best.EstimatedCost)
		}
		nested, err := q.Plan("nested")
		if err != nil {
			t.Fatal(err)
		}
		if nested.EstimatedCost <= best.EstimatedCost {
			t.Errorf("%s: nested cost %g must exceed best cost %g",
				id, nested.EstimatedCost, best.EstimatedCost)
		}
	}
}
