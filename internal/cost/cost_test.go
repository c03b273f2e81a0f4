package cost

import (
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/core"
	"nalquery/internal/dom"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/stats"
	"nalquery/internal/translate"
	"nalquery/internal/value"
	"nalquery/internal/xmlgen"
	"nalquery/internal/xpath"
	"nalquery/internal/xquery"
)

func modelFor(t *testing.T, size int) (*Model, map[string]*dom.Document) {
	t.Helper()
	cfg := xmlgen.DefaultConfig(size)
	docs := map[string]*dom.Document{
		"bib.xml":  xmlgen.Bib(cfg),
		"bids.xml": xmlgen.Bids(cfg),
	}
	return measuredModel(docs), docs
}

// measuredModel builds the model the engine builds: over the analyzer's
// statistics of every document.
func measuredModel(docs map[string]*dom.Document) *Model {
	st := make(map[string]*stats.DocStats, len(docs))
	for uri, d := range docs {
		st[uri] = stats.Analyze(d)
	}
	return NewModelStats(docs, st)
}

func plansFor(t *testing.T, src string) []core.PlanAlt {
	t.Helper()
	cat := schema.UseCases()
	ast, err := xquery.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := translate.TranslateParams(normalize.NormalizeWithCatalog(ast, cat), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw := core.NewRewriter(res, cat)
	return rw.Alternatives(res.Plan)
}

const q1Src = `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return <author><name>{ $a1 }</name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2//book[$a1 = author]
    return $b2/title }</author>`

func TestNestedPlanCostsMost(t *testing.T) {
	m, _ := modelFor(t, 500)
	alts := plansFor(t, q1Src)
	var nested, best float64
	for _, a := range alts {
		c := m.Plan(a.Op).Cost
		if c <= 0 {
			t.Fatalf("non-positive cost for %s", a.Name)
		}
		if a.Name == "nested" {
			nested = c
		} else if best == 0 || c < best {
			best = c
		}
	}
	if nested < best*10 {
		t.Fatalf("nested plan must dominate: nested=%g best-unnested=%g", nested, best)
	}
}

func TestCostGrowsWithDocuments(t *testing.T) {
	mSmall, _ := modelFor(t, 100)
	mLarge, _ := modelFor(t, 1000)
	alts := plansFor(t, q1Src)
	for _, a := range alts {
		small := mSmall.Plan(a.Op).Cost
		large := mLarge.Plan(a.Op).Cost
		if large <= small {
			t.Errorf("%s: cost must grow with data: %g vs %g", a.Name, small, large)
		}
		if a.Name == "nested" && large < small*50 {
			t.Errorf("nested cost must grow superlinearly: %g vs %g", small, large)
		}
	}
}

func TestCardinalityFromStats(t *testing.T) {
	m, _ := modelFor(t, 200)
	// Υ over //book should estimate the document's book count.
	plan := algebra.UnnestMap{
		In:   algebra.Map{In: algebra.Singleton{}, Attr: "d", E: algebra.Doc{URI: "bib.xml"}},
		Attr: "b",
		E:    algebra.PathOf{Input: algebra.Var{Name: "d"}, Path: xpath.MustParse("//book")},
	}
	est := m.Plan(plan)
	if est.Card < 150 || est.Card > 250 {
		t.Fatalf("book cardinality estimate off: %g", est.Card)
	}
}

// TestScanVariantCostsMore: a θ other than '=' sends binary grouping down
// the definitional scan, which must cost more than the hash path.
func TestScanVariantCostsMore(t *testing.T) {
	m, _ := modelFor(t, 200)
	mk := func(theta value.CmpOp) algebra.Op {
		return algebra.GroupBinary{
			L: algebra.UnnestMap{In: algebra.Map{In: algebra.Singleton{}, Attr: "d", E: algebra.Doc{URI: "bids.xml"}},
				Attr: "i1", E: algebra.PathOf{Input: algebra.Var{Name: "d"}, Path: xpath.MustParse("//itemno")}},
			R: algebra.UnnestMap{In: algebra.Map{In: algebra.Singleton{}, Attr: "d2", E: algebra.Doc{URI: "bids.xml"}},
				Attr: "i2", E: algebra.PathOf{Input: algebra.Var{Name: "d2"}, Path: xpath.MustParse("//itemno")}},
			G: "g", LAttrs: []string{"i1"}, RAttrs: []string{"i2"},
			Theta: theta, F: algebra.SFCount{},
		}
	}
	hash := m.Plan(mk(value.CmpEq)).Cost
	scan := m.Plan(mk(value.CmpLt)).Cost
	if scan <= hash {
		t.Fatalf("scan grouping must cost more: hash=%g scan=%g", hash, scan)
	}
}
