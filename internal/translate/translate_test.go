package translate

import (
	"strings"
	"testing"

	"nalquery/internal/algebra"
	"nalquery/internal/dom"
	"nalquery/internal/normalize"
	"nalquery/internal/schema"
	"nalquery/internal/value"
	"nalquery/internal/xquery"
)

func compile(t *testing.T, src string) *Result {
	t.Helper()
	ast, err := xquery.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := TranslateParams(normalize.NormalizeWithCatalog(ast, schema.UseCases()), schema.UseCases(), nil)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return res
}

func run(t *testing.T, res *Result, docs map[string]*dom.Document) (string, value.TupleSeq) {
	t.Helper()
	ctx := algebra.NewCtx(docs)
	out := res.Plan.Eval(ctx, nil)
	return ctx.OutString(), out
}

const miniBib = `<bib>
<book year="1994"><title>T1</title>
 <author><last>A</last><first>a</first></author>
 <publisher>P</publisher><price>10.00</price></book>
<book year="2000"><title>T2</title>
 <author><last>B</last><first>b</first></author>
 <author><last>A</last><first>a</first></author>
 <publisher>P</publisher><price>12.00</price></book>
</bib>`

func miniDocs(t *testing.T) map[string]*dom.Document {
	t.Helper()
	return map[string]*dom.Document{
		"bib.xml": dom.MustParseString(miniBib, "bib.xml"),
	}
}

func TestForBecomesUnnestMap(t *testing.T) {
	res := compile(t, `let $d := doc("bib.xml") for $b in $d//book return $b/title`)
	plan := algebra.Explain(res.Plan)
	if !strings.Contains(plan, "Υ[b:") {
		t.Fatalf("for must become Υ:\n%s", plan)
	}
	if !strings.Contains(plan, `χ[d:doc("bib.xml")]`) {
		t.Fatalf("let doc must become χ:\n%s", plan)
	}
	if !strings.Contains(plan, "Ξ[") {
		t.Fatalf("return must become Ξ:\n%s", plan)
	}
}

func TestWhereBecomesSelect(t *testing.T) {
	res := compile(t, `let $d := doc("bib.xml") for $b in $d//book where $b/@year > 1999 return $b/title`)
	out, _ := run(t, res, miniDocs(t))
	if out != "<title>T2</title>" {
		t.Fatalf("σ result: %q", out)
	}
}

func TestDistinctValuesProvenance(t *testing.T) {
	res := compile(t, `let $d := doc("bib.xml") for $a in distinct-values($d//author) return $a`)
	p := res.Prov["a"]
	if !p.Distinct || !p.DupFree {
		t.Fatalf("distinct-values provenance: %+v", p)
	}
	if p.URI != "bib.xml" || p.Chain != "//author" {
		t.Fatalf("chain: %+v", p)
	}
}

func TestSingletonPathStaysScalar(t *testing.T) {
	// title is a singleton child of book per the DTD: bound via plain χ.
	res := compile(t, `let $d := doc("bib.xml") for $b in $d//book let $t := $b/title return $t`)
	if res.Prov["t"].IsSeq {
		t.Fatalf("singleton path must not be sequence-bound: %+v", res.Prov["t"])
	}
	if res.Prov["t"].Chain != "//book/title" {
		t.Fatalf("chain: %+v", res.Prov["t"])
	}
}

func TestMultiPathBecomesSequenceAttr(t *testing.T) {
	// author is not singleton: bound via e[a'].
	res := compile(t, `let $d := doc("bib.xml") for $b in $d//book let $a := $b/author where $x = $a return $b`)
	p := res.Prov["a"]
	if !p.IsSeq || p.ItemAttr != "a'" {
		t.Fatalf("author must be sequence-bound: %+v", p)
	}
	// The comparison must have become a membership predicate.
	if !strings.Contains(algebra.Explain(res.Plan), "∈") {
		t.Fatalf("x = a must translate to ∈:\n%s", algebra.Explain(res.Plan))
	}
}

func TestNestedLetBecomesNestedApply(t *testing.T) {
	res := compile(t, `
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return <a>{ let $d2 := doc("bib.xml")
            for $b2 in $d2//book[$a1 = author]
            return $b2/title }</a>`)
	plan := algebra.Explain(res.Plan)
	if !strings.Contains(plan, "nested:") {
		t.Fatalf("nested query must appear as nested algebra:\n%s", plan)
	}
	if !strings.Contains(plan, "Π") {
		t.Fatalf("f must be a projection:\n%s", plan)
	}
}

func TestAggregateTranslation(t *testing.T) {
	res := compile(t, `
let $d := doc("bib.xml")
for $t in distinct-values($d//book/title)
let $c := count(let $d2 := doc("bib.xml")
                for $b2 in $d2//book
                let $t2 := $b2/title
                where $t2 = $t
                return $t2)
where $c >= 1
return <t>{ $t }</t>`)
	out, _ := run(t, res, miniDocs(t))
	if out != "<t>T1</t><t>T2</t>" {
		t.Fatalf("count aggregate: %q", out)
	}
}

func TestQuantifierTranslation(t *testing.T) {
	res := compile(t, `
let $d := doc("bib.xml")
for $t in $d//book/title
where some $t2 in (let $d2 := doc("bib.xml")
                   for $b in $d2//book
                   where $b/@year > 1999
                   for $t3 in $b/title
                   return $t3)
      satisfies $t = $t2
return <m>{ $t }</m>`)
	plan := algebra.Explain(res.Plan)
	if !strings.Contains(plan, "∃") {
		t.Fatalf("some must become ∃:\n%s", plan)
	}
	out, _ := run(t, res, miniDocs(t))
	if out != "<m><title>T2</title></m>" {
		t.Fatalf("∃ result: %q", out)
	}
}

func TestUniversalTranslation(t *testing.T) {
	res := compile(t, `
let $d := doc("bib.xml")
for $a in distinct-values($d//author)
where every $b in doc("bib.xml")//book[author = $a]
      satisfies $b/@year > 1995
return <n>{ $a }</n>`)
	plan := algebra.Explain(res.Plan)
	if !strings.Contains(plan, "∀") {
		t.Fatalf("every must become ∀:\n%s", plan)
	}
	out, _ := run(t, res, miniDocs(t))
	// Author "Bb" only has the 2000 book; "Aa" also wrote the 1994 one.
	if out != "<n>Bb</n>" {
		t.Fatalf("∀ result: %q", out)
	}
}

func TestConstructorCommands(t *testing.T) {
	res := compile(t, `
let $d := doc("bib.xml")
for $b in $d//book
let $t := $b/title
return <entry year="{ $b/@year }"><t>{ $t }</t></entry>`)
	out, _ := run(t, res, miniDocs(t))
	want := `<entry year="1994"><t><title>T1</title></t></entry>` +
		`<entry year="2000"><t><title>T2</title></t></entry>`
	if out != want {
		t.Fatalf("constructor:\ngot:  %s\nwant: %s", out, want)
	}
}

func TestAttributeOrderPreserved(t *testing.T) {
	// Results must come in document order: the essence of the ordered
	// context.
	res := compile(t, `let $d := doc("bib.xml") for $a in $d//author return <x>{ $a/last }</x>`)
	out, _ := run(t, res, miniDocs(t))
	want := "<x><last>A</last></x><x><last>B</last></x><x><last>A</last></x>"
	if out != want {
		t.Fatalf("order:\ngot:  %s\nwant: %s", out, want)
	}
}

func TestUnknownDocumentYieldsEmpty(t *testing.T) {
	res := compile(t, `let $d := doc("missing.xml") for $b in $d//book return $b`)
	out, ts := run(t, res, miniDocs(t))
	if out != "" || len(ts) != 0 {
		t.Fatalf("missing document must produce empty result, got %q", out)
	}
}

func TestTranslateErrors(t *testing.T) {
	bad := []string{
		// Non-literal doc argument.
		`let $d := doc($x) for $b in $d//book return $b`,
	}
	for _, src := range bad {
		ast, err := xquery.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := TranslateParams(normalize.NormalizeWithCatalog(ast, schema.UseCases()), schema.UseCases(), nil); err == nil {
			t.Errorf("expected translate error for %q", src)
		}
	}
}

func TestNilCatalogIsSafe(t *testing.T) {
	ast, err := xquery.ParseQuery(`let $d := doc("bib.xml") for $b in $d//book let $t := $b/title return $t`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TranslateParams(normalize.NormalizeWithCatalog(ast, schema.UseCases()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without facts, paths are conservatively sequence-bound.
	if !res.Prov["t"].IsSeq {
		t.Fatalf("nil catalog must be conservative: %+v", res.Prov["t"])
	}
}
