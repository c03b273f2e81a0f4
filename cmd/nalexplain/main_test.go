package main

import (
	"testing"

	nalquery "nalquery"
)

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
