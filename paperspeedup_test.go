package nalquery

import "testing"

// TestPaperSpeedupRatios holds the paper's Sec. 5 claim as a contract read
// from the engine's counters, not from a clock: on q1–q6 the nested plan does
// orders of magnitude more work than the plan the cost model chooses, and the
// gap widens with document size. Work is what the run counts — tuples
// produced by scans plus nested-expression evaluations — and the generated
// documents are seeded, so the counts repeat exactly; the floors are the
// readings at sizes 100 and 400 rounded down.
func TestPaperSpeedupRatios(t *testing.T) {
	sizes := [2]int{100, 400}
	var engines [2]*Engine
	for i, size := range sizes {
		engines[i] = NewEngine()
		engines[i].LoadUseCaseDocuments(size, 2)
	}
	for id, floors := range map[string][2]float64{
		"q1": {100, 400},
		"q2": {50, 200},
		"q3": {50, 200},
		"q4": {200, 800},
		"q5": {100, 400},
		"q6": {20, 70},
	} {
		t.Run(id, func(t *testing.T) {
			t.Parallel() // the nested plans at size 400 are the slow part
			var ratio [2]float64
			for i, eng := range engines {
				q, err := eng.Compile(PaperQueries[id])
				if err != nil {
					t.Fatal(err)
				}
				chosen, err := q.Plan("")
				if err != nil {
					t.Fatal(err)
				}
				want, nested, err := execute(q, "nested")
				if err != nil {
					t.Fatal(err)
				}
				got, best, err := execute(q, chosen.Name)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("size %d: plan %q and the nested plan disagree", sizes[i], chosen.Name)
				}
				if nested.NestedEvals == 0 || best.NestedEvals != 0 {
					t.Fatalf("size %d: nested evaluations: nested plan %d, chosen plan %q %d",
						sizes[i], nested.NestedEvals, chosen.Name, best.NestedEvals)
				}
				ratio[i] = float64(nested.Tuples+nested.NestedEvals) / float64(best.Tuples+best.NestedEvals)
				if ratio[i] < floors[i] {
					t.Errorf("size %d: the nested plan does %.1f× the work of %q, floor %.0f×",
						sizes[i], ratio[i], chosen.Name, floors[i])
				}
			}
			// The nested plan is quadratic in the document size and the chosen
			// plan linear: four times the size, about four times the ratio.
			if ratio[1] < 3*ratio[0] {
				t.Errorf("ratio %.1f× at size %d against %.1f× at size %d: the gap does not grow with size",
					ratio[1], sizes[1], ratio[0], sizes[0])
			}
		})
	}
}
