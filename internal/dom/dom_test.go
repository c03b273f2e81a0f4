package dom

import (
	"strings"
	"testing"
)

const sample = `<bib>
  <book year="1994">
    <title>T1</title>
    <author><last>L1</last><first>F1</first></author>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>T2</title>
    <author><last>L2</last><first>F2</first></author>
    <author><last>L3</last><first>F3</first></author>
    <price>39.95</price>
  </book>
</bib>`

func TestParseBasics(t *testing.T) {
	d, err := ParseString(sample, "bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	root := d.RootElement()
	if root == nil || root.Name() != "bib" {
		t.Fatalf("root element: %v", root)
	}
	books := root.ChildElements("book")
	if len(books) != 2 {
		t.Fatalf("books: %d", len(books))
	}
	if got := books[0].Attr("year").Data(); got != "1994" {
		t.Fatalf("year attr: %q", got)
	}
	if books[1].Attr("missing") != nil {
		t.Fatalf("missing attr must be nil")
	}
}

func TestStringValue(t *testing.T) {
	d := MustParseString(sample, "bib.xml")
	book := d.RootElement().FirstChildElement("book")
	author := book.FirstChildElement("author")
	if got := author.StringValue(); got != "L1F1" {
		t.Fatalf("string value: %q", got)
	}
	if got := book.FirstChildElement("title").StringValue(); got != "T1" {
		t.Fatalf("title: %q", got)
	}
	if got := book.Attr("year").StringValue(); got != "1994" {
		t.Fatalf("attr string value: %q", got)
	}
}

func TestDescendantsDocOrder(t *testing.T) {
	d := MustParseString(sample, "bib.xml")
	var all []*Node
	all = d.Root.Descendants("author", all)
	if len(all) != 3 {
		t.Fatalf("authors: %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if CompareOrder(all[i-1], all[i]) >= 0 {
			t.Fatalf("descendants not in document order")
		}
	}
	// Wildcard matches every element.
	var any []*Node
	any = d.Root.Descendants("", any)
	// bib + 2 book + 2 title + 3 author + 3 last + 3 first + 2 price = 16.
	if len(any) != 16 {
		t.Fatalf("all elements: %d", len(any))
	}
}

func TestDocumentOrderRanks(t *testing.T) {
	d := MustParseString(`<r><a x="1"><b/></a><c/></r>`, "t.xml")
	r := d.RootElement()
	a := r.ChildElements("a")[0]
	b := a.ChildElements("b")[0]
	c := r.ChildElements("c")[0]
	x := a.Attr("x")
	// Pre-order with attributes after their element.
	if !(r.Order() < a.Order() && a.Order() < x.Order() && x.Order() < b.Order() && b.Order() < c.Order()) {
		t.Fatalf("order ranks wrong: r=%d a=%d x=%d b=%d c=%d",
			r.Order(), a.Order(), x.Order(), b.Order(), c.Order())
	}
	if d.NumNodes() != 6 { // document + 4 elements + 1 attribute
		t.Fatalf("node count %d", d.NumNodes())
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder("x.xml")
	b.Begin("r").Attrib("k", "v")
	b.Element("a", "1")
	b.Begin("b").Text("two").End()
	b.End()
	d := b.Done()
	got := XMLString(d.RootElement())
	want := `<r k="v"><a>1</a><b>two</b></r>`
	if got != want {
		t.Fatalf("round trip: %q != %q", got, want)
	}
	// Re-parse and serialize again: stable.
	d2 := MustParseString(got, "x.xml")
	if XMLString(d2.RootElement()) != want {
		t.Fatalf("re-parse not stable")
	}
}

func TestEscaping(t *testing.T) {
	b := NewBuilder("esc.xml")
	b.Begin("r").Attrib("a", `x<&">`).Text(`y<&>`).End()
	got := XMLString(b.Done().RootElement())
	want := `<r a="x&lt;&amp;&quot;&gt;">y&lt;&amp;&gt;</r>`
	if got != want {
		t.Fatalf("escaping: %q", got)
	}
	// Parse back restores the original data.
	d := MustParseString(got, "esc.xml")
	if d.RootElement().Attr("a").Data() != `x<&">` {
		t.Fatalf("attr unescape: %q", d.RootElement().Attr("a").Data())
	}
	if d.RootElement().StringValue() != `y<&>` {
		t.Fatalf("text unescape: %q", d.RootElement().StringValue())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString(`<a><b></a>`, "bad.xml"); err == nil {
		t.Fatalf("mismatched tags must fail")
	}
	if _, err := ParseString(``, "empty.xml"); err != nil {
		t.Fatalf("empty document parses to empty tree: %v", err)
	}
}

func TestWhitespaceDropped(t *testing.T) {
	d := MustParseString("<r>\n  <a>x</a>\n</r>", "ws.xml")
	r := d.RootElement()
	if k := kids(r); len(k) != 1 {
		t.Fatalf("whitespace-only text must be dropped, children=%d", len(k))
	}
}

func TestEmptyElementSerialization(t *testing.T) {
	d := MustParseString(`<r><e/></r>`, "t.xml")
	if got := XMLString(d.RootElement()); got != `<r><e/></r>` {
		t.Fatalf("empty element: %q", got)
	}
}

func TestCompareOrderAcrossDocuments(t *testing.T) {
	a := MustParseString(`<a/>`, "a.xml")
	b := MustParseString(`<b/>`, "b.xml")
	if CompareOrder(a.Root, b.Root) >= 0 || CompareOrder(b.Root, a.Root) <= 0 {
		t.Fatalf("cross-document order must follow URIs")
	}
}

func TestWriteXMLToWriter(t *testing.T) {
	d := MustParseString(sample, "bib.xml")
	var sb strings.Builder
	if err := WriteXML(&sb, d.RootElement()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), `<bib><book year="1994">`) {
		t.Fatalf("serialized prefix: %q", sb.String()[:40])
	}
}
