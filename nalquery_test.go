package nalquery

import (
	"strings"
	"testing"
)

// tinyBib is a hand-checkable bibliography.
const tinyBib = `<bib>
<book year="1994"><title>TCP/IP Illustrated</title>
  <author><last>Stevens</last><first>W.</first></author>
  <publisher>Addison-Wesley</publisher><price>65.95</price></book>
<book year="1992"><title>Advanced Unix</title>
  <author><last>Stevens</last><first>W.</first></author>
  <publisher>Addison-Wesley</publisher><price>65.95</price></book>
<book year="2000"><title>Data on the Web</title>
  <author><last>Abiteboul</last><first>S.</first></author>
  <author><last>Buneman</last><first>P.</first></author>
  <author><last>Suciu</last><first>D.</first></author>
  <publisher>Morgan Kaufmann</publisher><price>39.95</price></book>
<book year="1999"><title>Economics of Technology</title>
  <editor><last>Gerbarg</last><first>D.</first></editor>
  <publisher>Kluwer</publisher><price>129.95</price></book>
</bib>`

const tinyReviews = `<reviews>
<entry><title>Data on the Web</title><price>34.95</price><review>good</review></entry>
<entry><title>TCP/IP Illustrated</title><price>65.95</price><review>fine</review></entry>
<entry><title>Unknown Book</title><price>9.95</price><review>meh</review></entry>
</reviews>`

const tinyPrices = `<prices>
<book><title>TCP/IP Illustrated</title><source>a.example.com</source><price>65.95</price></book>
<book><title>TCP/IP Illustrated</title><source>b.example.com</source><price>63.50</price></book>
<book><title>Advanced Unix</title><source>a.example.com</source><price>65.95</price></book>
<book><title>Data on the Web</title><source>b.example.com</source><price>34.95</price></book>
<book><title>Data on the Web</title><source>a.example.com</source><price>39.95</price></book>
</prices>`

const tinyBids = `<bids>
<bidtuple><userid>U01</userid><itemno>1001</itemno><bid>35</bid><biddate>1999-01-01</biddate></bidtuple>
<bidtuple><userid>U02</userid><itemno>1002</itemno><bid>40</bid><biddate>1999-01-02</biddate></bidtuple>
<bidtuple><userid>U01</userid><itemno>1001</itemno><bid>45</bid><biddate>1999-01-03</biddate></bidtuple>
<bidtuple><userid>U03</userid><itemno>1001</itemno><bid>55</bid><biddate>1999-01-04</biddate></bidtuple>
<bidtuple><userid>U02</userid><itemno>1003</itemno><bid>60</bid><biddate>1999-01-05</biddate></bidtuple>
<bidtuple><userid>U03</userid><itemno>1002</itemno><bid>65</bid><biddate>1999-01-06</biddate></bidtuple>
<bidtuple><userid>U01</userid><itemno>1002</itemno><bid>70</bid><biddate>1999-01-07</biddate></bidtuple>
</bids>`

func tinyEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	for uri, s := range map[string]string{
		"bib.xml": tinyBib, "reviews.xml": tinyReviews,
		"prices.xml": tinyPrices, "bids.xml": tinyBids,
	} {
		if err := e.LoadXMLString(uri, s); err != nil {
			t.Fatalf("load %s: %v", uri, err)
		}
	}
	return e
}

// planNames extracts the alternative names of a compiled query.
func planNames(q *Query) []string {
	var out []string
	for _, p := range q.Plans() {
		out = append(out, p.Name)
	}
	return out
}

// runAll executes every plan alternative and checks that the results are
// byte-identical, returning the common result.
func runAll(t *testing.T, e *Engine, query string) (string, *Query) {
	t.Helper()
	q, err := e.Compile(query)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var ref string
	for i, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("execute %s: %v", p.Name, err)
		}
		if i == 0 {
			ref = out
			continue
		}
		if out != ref {
			t.Errorf("plan %q result differs from nested plan\nnested: %s\n%s: %s\nplan:\n%s",
				p.Name, ref, p.Name, out, p.Explain())
		}
	}
	return ref, q
}

func TestQ1GroupingPlansAndResult(t *testing.T) {
	e := tinyEngine(t)
	out, q := runAll(t, e, QueryQ1Grouping)

	names := strings.Join(planNames(q), ",")
	for _, want := range []string{"nested", "outer join", "grouping", "group Ξ"} {
		if !strings.Contains(names, want) {
			t.Errorf("missing plan alternative %q (have %s)", want, names)
		}
	}
	// Stevens authored two books; titles must appear in document order.
	if !strings.Contains(out, "<author><name>StevensW.</name><title>TCP/IP Illustrated</title><title>Advanced Unix</title></author>") {
		t.Errorf("Q1 result missing grouped Stevens entry:\n%s", out)
	}
	if !strings.Contains(out, "<name>SuciuD.</name><title>Data on the Web</title>") {
		t.Errorf("Q1 result missing Suciu entry:\n%s", out)
	}
}

func TestQ2AggregationPlansAndResult(t *testing.T) {
	e := tinyEngine(t)
	out, q := runAll(t, e, QueryQ2Aggregation)
	names := strings.Join(planNames(q), ",")
	if !strings.Contains(names, "grouping") {
		t.Errorf("Q2 should have a grouping plan (Eqv. 3), have %s", names)
	}
	if !strings.Contains(out, `<minprice title="TCP/IP Illustrated"><price>63.5</price></minprice>`) {
		t.Errorf("Q2 wrong minprice for TCP/IP Illustrated:\n%s", out)
	}
	if !strings.Contains(out, `<minprice title="Data on the Web"><price>34.95</price></minprice>`) {
		t.Errorf("Q2 wrong minprice for Data on the Web:\n%s", out)
	}
}

func TestQ3ExistentialPlansAndResult(t *testing.T) {
	e := tinyEngine(t)
	out, q := runAll(t, e, QueryQ3Existential)
	names := strings.Join(planNames(q), ",")
	if !strings.Contains(names, "semijoin") {
		t.Errorf("Q3 should have a semijoin plan (Eqv. 6), have %s", names)
	}
	want := "<book-with-review><title>TCP/IP Illustrated</title></book-with-review>" +
		"<book-with-review><title>Data on the Web</title></book-with-review>"
	if out != want {
		t.Errorf("Q3 result mismatch:\ngot:  %s\nwant: %s", out, want)
	}
}

func TestQ4ExistsPlansAndResult(t *testing.T) {
	e := tinyEngine(t)
	out, q := runAll(t, e, QueryQ4Exists)
	names := strings.Join(planNames(q), ",")
	if !strings.Contains(names, "semijoin") {
		t.Errorf("Q4 should have a semijoin plan, have %s", names)
	}
	if !strings.Contains(names, "grouping") {
		t.Errorf("Q4 should have a single-scan grouping plan, have %s", names)
	}
	// Only "Data on the Web" has Suciu as co-author; all three of its
	// authors are returned, in document order.
	want := "<book><author><last>Abiteboul</last><first>S.</first></author></book>" +
		"<book><author><last>Buneman</last><first>P.</first></author></book>" +
		"<book><author><last>Suciu</last><first>D.</first></author></book>"
	if out != want {
		t.Errorf("Q4 result mismatch:\ngot:  %s\nwant: %s", out, want)
	}
}

func TestQ5UniversalPlansAndResult(t *testing.T) {
	e := tinyEngine(t)
	out, q := runAll(t, e, QueryQ5Universal)
	names := strings.Join(planNames(q), ",")
	if !strings.Contains(names, "anti-semijoin") {
		t.Errorf("Q5 should have an anti-semijoin plan (Eqv. 7), have %s", names)
	}
	if !strings.Contains(names, "grouping") {
		t.Errorf("Q5 should have a count-grouping plan (Eqv. 9), have %s", names)
	}
	// Stevens has a 1992 book — excluded. The Web authors (2000) qualify.
	if strings.Contains(out, "Stevens") {
		t.Errorf("Q5 must exclude Stevens (book from 1992):\n%s", out)
	}
	for _, a := range []string{"AbiteboulS.", "BunemanP.", "SuciuD."} {
		if !strings.Contains(out, "<new-author>"+a+"</new-author>") {
			t.Errorf("Q5 missing author %s:\n%s", a, out)
		}
	}
}

func TestQ6HavingCountPlansAndResult(t *testing.T) {
	e := tinyEngine(t)
	out, q := runAll(t, e, QueryQ6HavingCount)
	names := strings.Join(planNames(q), ",")
	if !strings.Contains(names, "grouping") {
		t.Errorf("Q6 should have a grouping plan (Eqv. 3), have %s", names)
	}
	// Item 1001 has 3 bids, 1002 has 3, 1003 has 1.
	want := "<popular-item>1001</popular-item><popular-item>1002</popular-item>"
	if out != want {
		t.Errorf("Q6 result mismatch:\ngot:  %s\nwant: %s", out, want)
	}
}

func TestQ1DBLPOnlyOuterJoin(t *testing.T) {
	e := NewEngine()
	e.LoadDBLPDocument(60)
	out, q := runAll(t, e, QueryQ1DBLP)
	for _, p := range q.Plans() {
		if p.Name == "grouping" || p.Name == "group Ξ" {
			t.Errorf("Eqv. 5 must be inadmissible on DBLP (authors without books); got plan %q", p.Name)
		}
	}
	if !strings.Contains(strings.Join(planNames(q), ","), "outer join") {
		t.Errorf("DBLP query should still have the outer-join plan, have %v", planNames(q))
	}
	// Authors without a book must still appear, with an empty title list.
	if !strings.Contains(out, "</name></author>") {
		t.Errorf("expected at least one author without books in DBLP result")
	}
	// The nested plan evaluates its inner block per author; the outer join
	// that replaces it never does.
	for plan, nested := range map[string]bool{"nested": true, "outer join": false} {
		_, st, err := execute(q, plan)
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if (st.NestedEvals > 0) != nested {
			t.Errorf("%s: NestedEvals = %d, want nested evaluations only in the nested plan", plan, st.NestedEvals)
		}
	}
}

func TestStatsShowScanSavings(t *testing.T) {
	e := NewEngine()
	e.LoadUseCaseDocuments(50, 2)
	q, err := e.Compile(QueryQ2Aggregation)
	if err != nil {
		t.Fatal(err)
	}
	_, nestedStats, err := execute(q, "nested")
	if err != nil {
		t.Fatal(err)
	}
	_, groupStats, err := execute(q, "grouping")
	if err != nil {
		t.Fatal(err)
	}
	if nestedStats.DocAccesses <= groupStats.DocAccesses {
		t.Errorf("nested plan should access the document more often: nested=%d grouping=%d",
			nestedStats.DocAccesses, groupStats.DocAccesses)
	}
	if groupStats.NestedEvals != 0 {
		t.Errorf("grouping plan must not evaluate nested expressions, got %d", groupStats.NestedEvals)
	}
}
