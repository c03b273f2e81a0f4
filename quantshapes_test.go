package nalquery

import (
	"fmt"
	"strings"
	"testing"
)

// TestQuantifierSatisfiesShapes covers the satisfies clauses internal/qgen
// cannot draw — arithmetic, conditionals, several paths over the quantifier
// variable, nested quantifiers — for both quantifiers over both range forms:
// every plan alternative on both evaluators and both consumption modes must
// agree (assertAllPlansAgree), and a row must agree with its twin, the same
// clause without the identity arithmetic or the identity conditional. The
// twins are the only cover there is for a fault before plan enumeration: all
// plans and both evaluators share the normalized text, so the differential
// oracle cannot see one (docs/FUZZING.md).
func TestQuantifierSatisfiesShapes(t *testing.T) {
	eng := paperEngine50()
	ranges := map[string]string{
		"path": `doc("bib.xml")//book[author = $a1]`,
		"flwr": `(let $d2 := doc("bib.xml") for $b2 in $d2//book where $b2/author = $a1 return $b2)`,
	}
	const (
		yearCmp  = `$x/@year > 1995`
		priceCmp = `$x/price > 60`
		both     = yearCmp + ` and ` + priceCmp
	)
	shapes := []struct{ name, sat, twin string }{
		{"arithmetic on an attribute", `$x/@year + 0 > 1995`, yearCmp},
		{"arithmetic on a child", `$x/price + 0 > 60`, priceCmp},
		{"conditional", `if (` + yearCmp + `) then true() else false()`, yearCmp},
		{"two paths under and", both, ""},
		{"attribute and arithmetic on a child", yearCmp + ` and $x/price + 0 > 60`, both},
		{"not", `not(` + yearCmp + `)`, ""},
		{"nested some over a child", `some $y in $x/author satisfies contains($y, "Last1")`, ""},
		{"outer path inside a call", `not($x/@year < $d1//book/@year)`, ""},
	}
	for _, quant := range []string{"some", "every"} {
		for rname, rng := range ranges {
			results := map[string]bool{}
			for _, s := range shapes {
				query := func(sat string) string {
					return fmt.Sprintf(`let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where %s $x in %s satisfies %s
return <a>{ $a1 }</a>`, quant, rng, sat)
				}
				t.Run(fmt.Sprintf("%s/%s/%s", quant, rname, s.name), func(t *testing.T) {
					out := assertAllPlansAgree(t, eng, query(s.sat))
					results[out] = true
					if s.twin == "" {
						return
					}
					if want := assertAllPlansAgree(t, eng, query(s.twin)); out != want {
						t.Errorf("satisfies %s gives %d bytes, its twin %s gives %d", s.sat, len(out), s.twin, len(want))
					}
				})
			}
			// A table whose rows all select everything, or nothing, checks little.
			if len(results) < 4 {
				t.Errorf("%s over the %s range: the %d shapes give only %d different results", quant, rname, len(shapes), len(results))
			}
		}
	}

	// A quantifier in a step predicate is in the subset — substContext used to
	// stop at the quantifier and leave its range's context item for the
	// translation to refuse ("unsupported expression xquery.ContextRef") — and
	// means what its where form means.
	t.Run("inside a step predicate", func(t *testing.T) {
		inPred := assertAllPlansAgree(t, eng,
			`for $b in doc("bib.xml")//book[some $a in author satisfies contains($a, "Last1")] return <t>{ $b/title }</t>`)
		inWhere := assertAllPlansAgree(t, eng,
			`for $b in doc("bib.xml")//book where some $a in $b/author satisfies contains($a, "Last1") return <t>{ $b/title }</t>`)
		if inPred != inWhere || !strings.Contains(inPred, "<title>") {
			t.Errorf("step-predicate form gives %d bytes, where form %d", len(inPred), len(inWhere))
		}
	})
}

// TestQuantifierJoinsCompareSequences: a quantifier's semijoin or
// anti-semijoin compares path values that may hold several items or none —
// a book with two titles or with none, a review entry with two titles or
// none, both sides with several authors — and compares them as the general
// comparison does (some pair of atoms stands in θ), never by a key (the first
// atom, absent equal to absent). Every row's expected output is derived by
// hand; the matching atoms are not the first of their sequences, so a key
// comparison would lose them. An entry with no title is in a document of its
// own, since it would leave every `every … !=` and `every … =` row empty.
func TestQuantifierJoinsCompareSequences(t *testing.T) {
	eng := NewEngine()
	for uri, doc := range map[string]string{
		"bib.xml": `<bib>
<book><key>x</key><title>A</title><author>P</author><author>Q</author></book>
<book><key>y</key><title>C</title><author>R</author></book>
<book><key>z</key><title>C</title><title>D</title></book>
<book><key>w</key><author>P</author></book>
</bib>`,
		"reviews.xml": `<reviews>
<entry><title>B</title><title>A</title><author>S</author><author>Q</author></entry>
<entry><title>E</title></entry>
</reviews>`,
		"untitled.xml": `<reviews><entry><title>A</title></entry><entry/></reviews>`,
	} {
		if err := eng.LoadXMLString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct{ doc, sat, plan, want string }{
		{"reviews.xml", `every $e in %s satisfies $e/title != $x/title`, "anti-semijoin", "x y z"},
		{"reviews.xml", `every $e in %s satisfies not($e/title = $x/title)`, "anti-semijoin", "y z w"},
		{"reviews.xml", `some $e in %s satisfies $e/title = $x/title`, "semijoin", "x"},
		{"reviews.xml", `some $e in %s satisfies $e/title != $x/title`, "semijoin", "x y z"},
		{"reviews.xml", `every $e in %s satisfies $e/title = $x/title`, "anti-semijoin", ""},
		{"reviews.xml", `some $q in %s satisfies $q/author = $x/author`, "semijoin", "x"},
		{"untitled.xml", `every $e in %s satisfies $e/title != $x/title`, "anti-semijoin", ""},
		{"untitled.xml", `every $e in %s satisfies not($e/title = $x/title)`, "anti-semijoin", "y z w"},
		{"untitled.xml", `some $e in %s satisfies $e/title = $x/title`, "semijoin", "x"},
		{"untitled.xml", `some $e in %s satisfies $e/title != $x/title`, "semijoin", "y z"},
		{"untitled.xml", `every $e in %s satisfies $e/title = $x/title`, "anti-semijoin", ""},
	} {
		sat := fmt.Sprintf(r.sat, `doc("`+r.doc+`")//entry`)
		t.Run(r.doc+"/"+sat, func(t *testing.T) {
			query := `let $d1 := doc("bib.xml") for $x in $d1//book where ` + sat + ` return $x/key`
			var want strings.Builder
			for _, k := range strings.Fields(r.want) {
				want.WriteString("<key>" + k + "</key>")
			}
			if got := assertAllPlansAgree(t, eng, query); got != want.String() {
				t.Errorf("gives %q, want %q", got, want.String())
			}
			q, err := eng.Compile(query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Plan(r.plan); err != nil {
				t.Errorf("no %s plan: %v", r.plan, err)
			}
		})
	}
}
