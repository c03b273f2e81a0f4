package nalquery

import (
	"sort"
	"strings"
	"testing"
)

// unorderedQ1 is the Sec. 5.1 grouping query wrapped in XQuery's
// unordered() function (Sec. 1): the result's order is irrelevant and the
// engine may answer with the unordered plan family.
const unorderedQ1 = `
unordered(
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author>
    <name> { $a1 } </name>
    {
      let $d2 := doc("bib.xml")
      for $b2 in $d2/bib/book[$a1 = author]
      return $b2/title
    }
  </author>)`

// fragments splits a constructed result into its top-level element
// instances (for multiset comparison of unordered outputs).
func fragments(out, endTag string) []string {
	var fs []string
	for _, f := range strings.SplitAfter(out, endTag) {
		f = strings.TrimSpace(f)
		if f != "" {
			fs = append(fs, f)
		}
	}
	return fs
}

// TestUnorderedWrapperDetected: the unordered(FLWR) wrapper sets
// OrderIrrelevant and adds unordered plan alternatives.
func TestUnorderedWrapperDetected(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 2)
	q, err := eng.Compile(unorderedQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !q.OrderIrrelevant {
		t.Fatalf("OrderIrrelevant = false, want true for unordered(FLWR)")
	}
	var unorderedPlans []string
	for _, p := range q.Plans() {
		if strings.HasPrefix(p.Name, "unordered ") {
			unorderedPlans = append(unorderedPlans, p.Name)
			found := false
			for _, a := range p.Applied {
				if a == "unordered-family" {
					found = true
				}
			}
			if !found {
				t.Errorf("plan %q lacks the unordered-family marker in Applied", p.Name)
			}
		}
	}
	if len(unorderedPlans) == 0 {
		t.Fatalf("no unordered plan alternatives offered; have %v", planNames(q))
	}
}

// TestUnorderedOutputsArePermutations: every unordered plan produces a
// permutation of its ordered counterpart's result elements, and each
// author's titles stay in document order inside the element.
func TestUnorderedOutputsArePermutations(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(50, 3)
	q, err := eng.Compile(unorderedQ1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range q.Plans() {
		if !strings.HasPrefix(p.Name, "unordered ") {
			continue
		}
		base := strings.TrimPrefix(p.Name, "unordered ")
		ordOut, _, err := execute(q, base)
		if err != nil {
			t.Fatalf("ordered plan %q: %v", base, err)
		}
		unordOut, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("unordered plan %q: %v", p.Name, err)
		}
		a := fragments(ordOut, "</author>")
		b := fragments(unordOut, "</author>")
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != len(b) {
			t.Fatalf("plan %q: %d fragments vs %d in ordered plan", p.Name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("plan %q: fragment multiset differs at %d:\n%s\nvs\n%s",
					p.Name, i, a[i], b[i])
			}
		}
	}
}

// TestUnorderedRejectedWithoutWrapper: without the wrapper no unordered
// alternatives appear.
func TestUnorderedRejectedWithoutWrapper(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(20, 2)
	q, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderIrrelevant {
		t.Errorf("OrderIrrelevant = true for a plain FLWR query")
	}
	for _, p := range q.Plans() {
		if strings.HasPrefix(p.Name, "unordered ") {
			t.Errorf("unexpected unordered plan %q", p.Name)
		}
	}
}

// TestUnorderedDeterministicOutput: unordered plans are still deterministic
// (key order is a fixed total order) — repeated executions agree.
func TestUnorderedDeterministicOutput(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(30, 2)
	q, err := eng.Compile(unorderedQ1)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, p := range q.Plans() {
		if strings.HasPrefix(p.Name, "unordered ") {
			name = p.Name
			break
		}
	}
	if name == "" {
		t.Skip("no unordered alternative for this catalog")
	}
	first, _, err := execute(q, name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out, _, err := execute(q, name)
		if err != nil {
			t.Fatal(err)
		}
		if out != first {
			t.Fatalf("unordered plan %q output differs between runs", name)
		}
	}
}
