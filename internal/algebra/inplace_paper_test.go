package algebra_test

import (
	"sort"
	"testing"

	"nalquery"
	"nalquery/internal/algebra"
	"nalquery/internal/core"
	"nalquery/internal/dom"
	"nalquery/internal/index"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/translate"
	"nalquery/internal/xmlgen"
	"nalquery/internal/xpath"
	"nalquery/internal/xquery"
)

// indexCat resolves index substitutions onto documents' indexes, as the
// engine does.
type indexCat map[string]*index.DocIndexes

func (c indexCat) ScanIndex(uri string, p xpath.Path) (core.ScanInfo, bool) {
	if x := c[uri]; x != nil {
		return x.Scan(p)
	}
	return core.ScanInfo{}, false
}

func (c indexCat) ValueIndex(uri string, base, rel xpath.Path) (core.ValueInfo, bool) {
	if x := c[uri]; x != nil {
		return x.Value(base, rel)
	}
	return core.ValueInfo{}, false
}

// TestPaperPlanRowsLeaveRunsSealed: every plan alternative of every paper
// query, index-substituted ones included, keeps the χ-run invariant
// (algebra.CheckRowOwnership) — every row its root emits and every row a
// breaker drains has cap == len, and no row changes after it is emitted —
// and the unnested plans' χ runs do write in place.
func TestPaperPlanRowsLeaveRunsSealed(t *testing.T) {
	cfg := xmlgen.DefaultConfig(30)
	cfg.AuthorsPerBook = 2
	docs := map[string]*dom.Document{}
	icat := indexCat{}
	for _, d := range []*dom.Document{xmlgen.Bib(cfg), xmlgen.Reviews(cfg), xmlgen.Prices(cfg), xmlgen.Users(cfg),
		xmlgen.Items(cfg), xmlgen.Bids(cfg), xmlgen.DBLP(xmlgen.DBLPConfig{Seed: 42, Publications: 30})} {
		docs[d.URI], icat[d.URI] = d, index.Build(d)
	}
	var ids []string
	for id := range nalquery.PaperQueries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	cat := schema.UseCases()
	inPlace := 0
	for _, id := range ids {
		ast, err := xquery.ParseQuery(nalquery.PaperQueries[id])
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		res, err := translate.TranslateParams(normalize.NormalizeWithCatalog(ast, cat), cat, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, a := range core.NewRewriter(res, cat).Alternatives(res.Plan) {
			plans := []algebra.Op{a.Op}
			if sub, changed := core.SubstituteIndexes(a.Op, icat); changed && core.Validate(sub) {
				plans = append(plans, sub)
			}
			for _, op := range plans {
				_, rows := algebra.CheckRowOwnership(t, op, algebra.NewCtx(docs))
				inPlace += rows
			}
		}
	}
	if inPlace == 0 {
		t.Errorf("no χ of any paper plan wrote its slot in place")
	}
}
