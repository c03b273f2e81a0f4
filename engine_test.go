package nalquery

import (
	"strings"
	"testing"
)

func TestEngineAPIErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Compile(`for $x in`); err == nil {
		t.Fatalf("syntax error must surface")
	}
	if err := e.LoadXMLString("bad.xml", `<a><b></a>`); err == nil {
		t.Fatalf("malformed XML must surface")
	}
	if e.Document("nothing.xml") != nil {
		t.Fatalf("unknown document must be nil")
	}
}

func TestPlanLookup(t *testing.T) {
	e := tinyEngine(t)
	q, err := e.Compile(QueryQ3Existential)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Plan("does-not-exist"); err == nil {
		t.Fatalf("unknown plan must error")
	}
	p, err := q.Plan("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name == "nested" {
		t.Fatalf("default plan must be the most optimized, got nested")
	}
	if p.Explain() == "" {
		t.Fatalf("plan must explain itself")
	}
	if _, _, err := execute(q, "no-such-plan"); err == nil {
		t.Fatalf("executing an unknown plan must error")
	}
}

func TestOneShotQuery(t *testing.T) {
	e := tinyEngine(t)
	out, err := e.Query(QueryQ6HavingCount)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<popular-item>1001</popular-item>") {
		t.Fatalf("one-shot query: %s", out)
	}
}

func TestNormalizedFormExposed(t *testing.T) {
	e := tinyEngine(t)
	q, err := e.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	// The normalized form must re-parse (it is shown to users, as by
	// nalsh -explain).
	if _, err := e.Compile(q.Normalized); err != nil {
		t.Fatalf("normalized form does not re-compile: %v\n%s", err, q.Normalized)
	}
}

func TestCatalogCustomDocument(t *testing.T) {
	e := NewEngine()
	if err := e.LoadXMLString("inv.xml", `<inventory>
<product><sku>A</sku><qty>5</qty></product>
<product><sku>B</sku><qty>0</qty></product>
<product><sku>A</sku><qty>2</qty></product>
</inventory>`); err != nil {
		t.Fatal(err)
	}
	// Register DTD facts so the condition-bearing grouping plan becomes
	// admissible for a non-use-case document.
	f := e.Catalog().Doc("inv.xml")
	f.Child("inventory", "product", 0, -1)
	f.Child("product", "sku", 1, 1)
	f.Child("product", "qty", 1, 1)

	q, err := e.Compile(`
let $d1 := doc("inv.xml")
for $s1 in distinct-values($d1//sku)
let $t1 := sum(let $d2 := doc("inv.xml")
               for $p2 in $d2//product
               let $s2 := $p2/sku
               let $q2 := $p2/qty
               where $s1 = $s2
               return decimal($q2))
return <stock sku="{ $s1 }">{ $t1 }</stock>`)
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Join(planNames(q), ",")
	if !strings.Contains(names, "grouping") {
		t.Fatalf("custom facts must enable the grouping plan, have %s", names)
	}
	out, _, err := execute(q, "grouping")
	if err != nil {
		t.Fatal(err)
	}
	want := `<stock sku="A">7</stock><stock sku="B">0</stock>`
	if out != want {
		t.Fatalf("custom document grouping:\ngot:  %s\nwant: %s", out, want)
	}
	nested, _, err := execute(q, "nested")
	if err != nil {
		t.Fatal(err)
	}
	if nested != out {
		t.Fatalf("plans disagree: %s vs %s", nested, out)
	}
}

// TestThetaCorrelationEndToEnd exercises Eqv. 1 / Eqv. 3 with a
// non-equality correlation predicate through the public API.
func TestThetaCorrelationEndToEnd(t *testing.T) {
	e := tinyEngine(t)
	q, err := e.Compile(`
let $d1 := document("bids.xml")
for $a1 in distinct-values($d1//bid)
let $c1 := count(let $d2 := document("bids.xml")
                 for $b2 in $d2//bidtuple/bid
                 where $b2 < $a1
                 return $b2)
return <r bid="{ $a1 }">{ $c1 }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	var ref string
	for _, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Fatalf("θ-correlation plan %s differs:\n%s\nvs\n%s", p.Name, out, ref)
		}
	}
	// Bids: 35,40,45,55,60,65,70. Strictly-cheaper counts per first
	// occurrence order.
	if !strings.Contains(ref, `<r bid="35">0</r>`) || !strings.Contains(ref, `<r bid="70">6</r>`) {
		t.Fatalf("θ-correlation result wrong: %s", ref)
	}
}

// TestOrderPreservationUnderReorderedInput verifies the ordered-context
// property the paper is about: titles per author come back in document
// order even though the grouping hash visits authors in first-occurrence
// order.
func TestOrderPreservationUnderReorderedInput(t *testing.T) {
	e := NewEngine()
	// Authors deliberately interleaved so per-author titles are
	// non-contiguous.
	if err := e.LoadXMLString("bib.xml", `<bib>
<book year="1994"><title>Z-first</title>
  <author><last>B</last><first>.</first></author>
  <publisher>p</publisher><price>1</price></book>
<book year="1995"><title>A-second</title>
  <author><last>A</last><first>.</first></author>
  <publisher>p</publisher><price>1</price></book>
<book year="1996"><title>M-third</title>
  <author><last>B</last><first>.</first></author>
  <publisher>p</publisher><price>1</price></book>
</bib>`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		// B's titles must be Z-first then M-third (document order), never
		// sorted or reversed.
		if !strings.Contains(out, "<title>Z-first</title><title>M-third</title>") {
			t.Errorf("plan %s broke document order of group members:\n%s", p.Name, out)
		}
	}
}

func TestStatsTuplesCounted(t *testing.T) {
	e := tinyEngine(t)
	q, err := e.Compile(QueryQ3Existential)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples == 0 {
		t.Fatalf("scan tuples must be counted")
	}
}
