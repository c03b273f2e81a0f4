package main

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	nalquery "nalquery"
)

// TestExplainMatchesCompileOverCorpus: for every paper query the plans the
// text mode lists and the plan -dot best draws are those Compile and
// Plan("") give over the corpus nalexplain loads — an engine without
// documents offers no indexed plans and picks another best plan.
func TestExplainMatchesCompileOverCorpus(t *testing.T) {
	eng := nalquery.NewEngine()
	eng.LoadUseCaseDocuments(40, 2)
	eng.LoadDBLPDocument(40)
	heading := regexp.MustCompile(`(?m)^== plan: (.*?)(?: \[.*\])? ==$`)
	for id, text := range nalquery.PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var want []string
		for _, p := range q.Plans() {
			want = append(want, p.Name)
		}
		var listing strings.Builder
		if err := explain(&listing, text, "", false, 40); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got []string
		for _, m := range heading.FindAllStringSubmatch(listing.String(), -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: nalexplain lists %v, Compile has %v", id, got, want)
		}

		best, err := q.Plan("")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var dot strings.Builder
		if err := explain(&dot, text, "best", false, 40); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if dot.String() != best.ExplainDot() {
			t.Errorf("%s: -dot best is not the dot of Plan(\"\") (%s)", id, best.Name)
		}
	}
}

// TestCardsCorpusCoversPaperQueries: under the corpus -cards loads, the root
// Ξ of every paper query's chosen plan emits rows — q1dblp reads dblp.xml,
// which the use-case corpus alone does not hold (every operator above its
// doc() then reported actual=0 beside a plausible estimate).
func TestCardsCorpusCoversPaperQueries(t *testing.T) {
	eng := nalquery.NewEngine()
	loadCorpus(eng, 40)
	for id, text := range nalquery.PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rows, err := q.ExplainCards("")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rows) == 0 || rows[0].Actual <= 0 {
			t.Errorf("%s: root of the chosen plan has actual=%v, want > 0", id, rows)
		}
	}
}
