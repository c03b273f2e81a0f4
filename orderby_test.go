package nalquery

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// End-to-end tests for the order by extension: parse → normalize →
// translate (χ sort keys → stable Sort → Π̄) → execute.

const orderByPricesQ = `
let $d1 := doc("prices.xml")
for $b1 in $d1//book
let $p1 := $b1/price
order by decimal($p1) descending
return <p>{ decimal($p1) }</p>`

var priceRe = regexp.MustCompile(`<p>([0-9.]+)</p>`)

func extractPrices(t *testing.T, out string) []float64 {
	t.Helper()
	var ps []float64
	for _, m := range priceRe.FindAllStringSubmatch(out, -1) {
		f, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("bad price %q: %v", m[1], err)
		}
		ps = append(ps, f)
	}
	return ps
}

// TestOrderByDescendingEndToEnd: prices come out in descending order, on
// every plan alternative.
func TestOrderByDescendingEndToEnd(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(60, 2)
	q, err := eng.Compile(orderByPricesQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range q.Plans() {
		out, _, err := execute(q, p.Name)
		if err != nil {
			t.Fatalf("plan %q: %v", p.Name, err)
		}
		ps := extractPrices(t, out)
		if len(ps) == 0 {
			t.Fatalf("plan %q: no prices in output", p.Name)
		}
		if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i] > ps[j] }) {
			t.Errorf("plan %q: prices not descending: %v", p.Name, ps)
		}
	}
}

// TestOrderByAscendingDefault: without a modifier the order is ascending.
func TestOrderByAscendingDefault(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(40, 2)
	q, err := eng.Compile(strings.Replace(orderByPricesQ, " descending", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	ps := extractPrices(t, out)
	if !sort.Float64sAreSorted(ps) {
		t.Errorf("prices not ascending: %v", ps)
	}
}

// TestOrderByStableKeepsDocumentOrder: tuples with equal keys stay in
// document order (the sort is stable). Sorting every book by a constant key
// must reproduce the unsorted document order exactly.
func TestOrderByStableKeepsDocumentOrder(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(30, 2)
	withSort := `
let $d1 := doc("prices.xml")
for $b1 in $d1//book
let $p1 := $b1/price
stable order by "same"
return <p>{ decimal($p1) }</p>`
	without := `
let $d1 := doc("prices.xml")
for $b1 in $d1//book
let $p1 := $b1/price
return <p>{ decimal($p1) }</p>`
	q1, err := eng.Compile(withSort)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := eng.Compile(without)
	if err != nil {
		t.Fatal(err)
	}
	o1, _, err := execute(q1, "")
	if err != nil {
		t.Fatal(err)
	}
	o2, _, err := execute(q2, "")
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Errorf("constant-key stable sort changed the document order")
	}
}

// TestOrderByBothEngines: the slot engine's Sort breaker produces the same
// sorted output as the definitional evaluator.
func TestOrderByBothEngines(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(40, 2)
	q, err := eng.Compile(orderByPricesQ)
	if err != nil {
		t.Fatal(err)
	}
	str, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	mat, _, err := execute(q, "", WithReferenceEngine())
	if err != nil {
		t.Fatal(err)
	}
	if mat != str {
		t.Errorf("slot engine output differs from the reference evaluator's")
	}
}

// TestOrderByMultiKey: secondary key breaks ties of the primary key.
func TestOrderByMultiKey(t *testing.T) {
	eng := NewEngine()
	eng.LoadXMLString("s.xml", `<s>
		<r><a>1</a><b>2</b></r>
		<r><a>2</a><b>9</b></r>
		<r><a>1</a><b>1</b></r>
		<r><a>2</a><b>3</b></r>
	</s>`)
	q, err := eng.Compile(`
let $d := doc("s.xml")
for $r in $d//r
order by decimal($r/a), decimal($r/b) descending
return <v>{ decimal($r/a) }-{ decimal($r/b) }</v>`)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := execute(q, "")
	if err != nil {
		t.Fatal(err)
	}
	want := "<v>1-2</v><v>1-1</v><v>2-9</v><v>2-3</v>"
	if strings.Join(strings.Fields(out), "") != strings.Join(strings.Fields(want), "") {
		t.Errorf("got %q, want %q", out, want)
	}
}
