package nalquery

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nalquery/internal/dom"
	"nalquery/internal/schema"
	"nalquery/internal/xmlgen"
)

// The cost model is a projection of the snapshot's load-time statistics,
// built once per snapshot. These tests pin that it is built when the
// documents change and at no other time.

// planCosts renders the plan list — names in order, each with its exact
// estimated cost — and the chosen plan.
func planCosts(q *Query) string {
	chosen, err := q.Plan("")
	if err != nil {
		return err.Error()
	}
	out := "chosen " + chosen.Name
	for _, p := range q.Plans() {
		// %b prints the float exactly: equal strings mean == costs.
		out += fmt.Sprintf("\n%s %b", p.Name, p.EstimatedCost)
	}
	return out
}

// positionalQueries scan paths with positional predicates: the measured path
// counts do not resolve those, so their cardinalities come from the model's
// element-name counts.
var positionalQueries = map[string]string{
	"positional book":   `let $d := doc("bib.xml") for $b in $d//book[1] return $b/title`,
	"positional author": `let $d := doc("bib.xml") for $b in $d//book for $a in $b/author[2] return $a/last`,
	"positional bid": `let $d := doc("bids.xml") for $i in distinct-values($d//itemno)
		where count($d//bidtuple[itemno = $i]/bid[1]) >= 1 return <i>{ $i }</i>`,
}

// costQueries is the paper's queries plus the positional ones.
func costQueries() map[string]string {
	out := map[string]string{}
	for _, m := range []map[string]string{PaperQueries, positionalQueries} {
		for id, text := range m {
			out[id] = text
		}
	}
	return out
}

// TestCostModelOncePerSnapshot pins the model's lifetime structurally: one
// model per snapshot shared by every compile, an equal one across a
// catalog-only transition, a new one reflecting a loaded or replaced
// document — and no compile reads a document, shown by compiling over
// documents emptied after load.
func TestCostModelOncePerSnapshot(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(60, 2)
	eng.LoadDBLPDocument(60)
	st := eng.snapshot()

	a, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Compile(QueryQ3Existential)
	if err != nil {
		t.Fatal(err)
	}
	if a.model != st.model || b.model != st.model {
		t.Fatalf("compiles on one snapshot do not share the snapshot's model")
	}

	eng.EditCatalog(func(cat *schema.Catalog) { cat.Doc("extra.xml").Child("r", "c", 0, -1) })
	if edited := eng.snapshot(); edited == st || !reflect.DeepEqual(edited.model, st.model) {
		t.Errorf("a catalog-only transition changed the cost model")
	}

	// Replacing bib.xml with a larger one yields a new model that prices the
	// query exactly like an engine that only ever saw the new documents.
	before := planCosts(a)
	eng.LoadDocument(xmlgen.Bib(xmlgen.DefaultConfig(240)))
	if eng.snapshot().model == st.model {
		t.Fatalf("a replaced document kept the old snapshot's model")
	}
	replaced, err := eng.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine()
	fresh.LoadUseCaseDocuments(60, 2)
	fresh.LoadDBLPDocument(60)
	fresh.LoadDocument(xmlgen.Bib(xmlgen.DefaultConfig(240)))
	want, err := fresh.Compile(QueryQ1Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if got := planCosts(replaced); got == before || got != planCosts(want) {
		t.Errorf("costs after replacing bib.xml:\n%s\nbefore:\n%s\nfresh engine:\n%s", got, before, planCosts(want))
	}

	// Empty every document behind the engine's back (this engine is private
	// to the test): a compile that looked at a document would now count
	// nothing and price every plan differently.
	wantCosts := map[string]string{}
	for id, text := range costQueries() {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		wantCosts[id] = planCosts(q)
	}
	docs := eng.snapshot().docs
	for uri := range docs {
		docs[uri] = dom.NewBuilder(uri).Done()
	}
	for id, text := range costQueries() {
		q, err := eng.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := planCosts(q); got != wantCosts[id] {
			t.Errorf("%s: compiling over emptied documents changed the plans\n%s\nwant:\n%s", id, got, wantCosts[id])
		}
	}
}

// TestCostModelLoadRacesCompile: loads publish new models while compiles
// read them (the -race gate of the per-snapshot model), and every compile
// sees one snapshot's model whole: the cost of scanning a document that is
// only ever replaced by copies of itself never moves.
func TestCostModelLoadRacesCompile(t *testing.T) {
	eng := NewEngine()
	eng.LoadUseCaseDocuments(30, xmlgen.DefaultConfig(30).AuthorsPerBook)
	q, err := eng.Compile(QueryQ3Existential)
	if err != nil {
		t.Fatal(err)
	}
	want := planCosts(q)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			eng.LoadDocument(xmlgen.Bib(xmlgen.DefaultConfig(30)))
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q, err := eng.Compile(QueryQ3Existential)
				if err != nil {
					t.Error(err)
					return
				}
				if got := planCosts(q); got != want {
					t.Errorf("a compile racing loads priced its plans differently:\n%s\nwant:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
