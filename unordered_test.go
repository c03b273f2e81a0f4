package nalquery

import (
	"errors"
	"slices"
	"testing"
)

// unordered(Q) ≡ Q: a top-level unordered(FLWR) wrapper is stripped, and
// the query is compiled, planned and run exactly as Q — there is no
// unordered plan family.

// compileBoth compiles every paper query plain and wrapped in unordered()
// over a size-30 corpus.
func compileBoth(t *testing.T) map[string][2]*Query {
	t.Helper()
	eng := NewEngine()
	eng.LoadUseCaseDocuments(30, 2)
	eng.LoadDBLPDocument(30)
	out := make(map[string][2]*Query, len(PaperQueries))
	for id, text := range PaperQueries {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		uq, err := eng.Compile("unordered(" + text + ")")
		if err != nil {
			t.Fatalf("%s/unordered: %v", id, err)
		}
		out[id] = [2]*Query{q, uq}
	}
	return out
}

// TestUnorderedWrapperDetected: the wrapper is stripped before
// normalization, and the wrapped query lists exactly Q's plans, in Q's
// order.
func TestUnorderedWrapperDetected(t *testing.T) {
	for id, qs := range compileBoth(t) {
		if qs[1].Normalized != qs[0].Normalized {
			t.Errorf("%s: unordered(Q) normalizes to %q, Q to %q", id, qs[1].Normalized, qs[0].Normalized)
		}
		if got, want := planNames(qs[1]), planNames(qs[0]); !slices.Equal(got, want) {
			t.Errorf("%s: unordered(Q) plans %v, Q plans %v", id, got, want)
		}
	}
}

// TestUnorderedOutputsArePermutations: under every plan the wrapped query's
// output is byte-identical to Q's — a fortiori a permutation of it.
func TestUnorderedOutputsArePermutations(t *testing.T) {
	for id, qs := range compileBoth(t) {
		for _, p := range qs[0].Plans() {
			want, _, err := execute(qs[0], p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, p.Name, err)
			}
			got, _, err := execute(qs[1], p.Name)
			if err != nil {
				t.Fatalf("%s/unordered/%s: %v", id, p.Name, err)
			}
			if got != want {
				t.Errorf("%s/%s: unordered(Q) output differs from Q's", id, p.Name)
			}
		}
	}
}

// TestUnorderedRejectedWithoutWrapper: no query — wrapped or not — has a
// plan named "unordered …".
func TestUnorderedRejectedWithoutWrapper(t *testing.T) {
	for _, q := range compileBoth(t)["q1"] {
		_, _, err := execute(q, "unordered grouping")
		var upe *UnknownPlanError
		if !errors.As(err, &upe) {
			t.Errorf("WithPlan(\"unordered grouping\"): got %v, want *UnknownPlanError", err)
		}
	}
}

// TestUnorderedDeterministicOutput: every plan of a wrapped query produces
// the same bytes, run after run.
func TestUnorderedDeterministicOutput(t *testing.T) {
	for id, qs := range compileBoth(t) {
		first, _, err := execute(qs[1], "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, p := range qs[1].Plans() {
			for i := 0; i < 2; i++ {
				out, _, err := execute(qs[1], p.Name)
				if err != nil {
					t.Fatalf("%s/%s: %v", id, p.Name, err)
				}
				if out != first {
					t.Errorf("%s/%s: output differs from the chosen plan's (run %d)", id, p.Name, i)
				}
			}
		}
	}
}
