package experiments

import (
	"testing"

	nalquery "nalquery"
	"nalquery/internal/cli"
)

// TestExperimentsSlotVsReference runs every plan of every experiment on the
// slot-based engine and the map-based reference evaluator
// (WithReferenceEngine) and requires byte-identical constructed output — the
// harness-level counterpart of the algebra's row/map differential tests.
func TestExperimentsSlotVsReference(t *testing.T) {
	for _, exp := range All() {
		eng := NewEngine(exp, 30, 2)
		q, err := eng.Compile(exp.Query)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		for _, p := range q.Plans() {
			ref, _, err := cli.RunPlan(q, p.Name, nalquery.WithReferenceEngine())
			if err != nil {
				t.Fatalf("%s/%s reference: %v", exp.ID, p.Name, err)
			}
			got, _, err := cli.RunPlan(q, p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", exp.ID, p.Name, err)
			}
			if ref != got {
				t.Errorf("%s/%s: slot output differs from reference\nref:  %.160s\nslot: %.160s",
					exp.ID, p.Name, ref, got)
			}
		}
	}
}
