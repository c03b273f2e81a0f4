package normalize

import (
	"strings"
	"testing"

	"nalquery/internal/schema"
	"nalquery/internal/xquery"
)

// TestUniversalNarrowingRequiresRequiredAttr: narrowing an every-range to an
// attribute is only sound when the DTD guarantees the attribute exists on
// every range item (an item without it makes the original ∀ false but would
// vanish from the narrowed range).
func TestUniversalNarrowingRequiresRequiredAttr(t *testing.T) {
	src := `
let $d := doc("bib.xml")
for $a in distinct-values($d//author)
where every $b in doc("bib.xml")//book[author = $a] satisfies $b/@year > 1993
return $a`
	ast, err := xquery.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}

	// With the use-case DTD (@year #REQUIRED): narrowing applies.
	withFacts := NormalizeWithCatalog(ast, schema.UseCases()).(xquery.FLWR)
	if !containsNarrowedRange(withFacts) {
		t.Fatalf("narrowing must apply with #REQUIRED fact:\n%s", withFacts)
	}

	// Without facts: the rewrite must be skipped (unsound in general).
	withoutFacts := NormalizeWithCatalog(ast, nil).(xquery.FLWR)
	if containsNarrowedRange(withoutFacts) {
		t.Fatalf("narrowing must be skipped without facts:\n%s", withoutFacts)
	}

	// With facts but the attribute declared optional: skipped too.
	optional := schema.NewCatalog()
	f := optional.Doc("bib.xml")
	f.Child("bib", "book", 0, -1)
	f.Child("book", "author", 0, -1)
	f.Attr("book", "year", false) // #IMPLIED
	withOptional := NormalizeWithCatalog(ast, optional).(xquery.FLWR)
	if containsNarrowedRange(withOptional) {
		t.Fatalf("narrowing must be skipped for optional attributes:\n%s", withOptional)
	}
}

// TestExistentialNarrowingAlwaysApplies: for some-quantifiers, narrowing is
// sound regardless of attribute facts.
func TestExistentialNarrowingAlwaysApplies(t *testing.T) {
	src := `
let $d := doc("bib.xml")
for $a in distinct-values($d//author)
where some $b in doc("bib.xml")//book[author = $a] satisfies $b/@year > 1999
return $a`
	ast, err := xquery.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	f := NormalizeWithCatalog(ast, nil).(xquery.FLWR)
	if !containsNarrowedRange(f) {
		t.Fatalf("some-narrowing needs no facts:\n%s", f)
	}
}

// containsNarrowedRange reports whether any quantifier in the query's where
// clauses ranges over @year values (the narrowed form).
func containsNarrowedRange(f xquery.FLWR) bool {
	for _, c := range f.Clauses {
		w, ok := c.(xquery.WhereClause)
		if !ok {
			continue
		}
		q, ok := w.Cond.(xquery.Quant)
		if !ok {
			continue
		}
		rng, ok := q.Range.(xquery.FLWR)
		if !ok {
			continue
		}
		// Narrowed: the range binds @year values (for existentials the
		// comparison may additionally have moved into the range, leaving
		// satisfies as true()).
		if strings.Contains(rng.String(), "@year") {
			return true
		}
	}
	return false
}
